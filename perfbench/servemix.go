package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dining"
	"repro/internal/serve"
)

// serve-mix: two closed-loop clients send seeded, popularity-skewed requests
// over loopback HTTP to an in-process dpserve handler whose cache already
// holds every exhaustive configuration of the catalogue.
//
// No record of real dpserve traffic exists, so the popularity is an
// assumption: a Zipf law (s = 1, the usual model of request popularity) over
// the catalogue in its listed order.

// opHeader carries "op/parent-span" from a traced client request to the
// handler middleware, so the handler's span joins the client's op.
const opHeader = "X-Perfbench-Op"

// deckLen is the number of requests in one deck: each deck holds every
// catalogue entry exactly weight times, in a seeded order, so every seed sends
// the same mix and only the order differs.
const deckLen = 64

// zipfWeights splits total requests over n ranks in proportion to 1/rank,
// rounding by largest remainder so the weights sum to total.
func zipfWeights(n, total int) []int {
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	weights := make([]int, n)
	rest := make([]float64, n)
	left := total
	for k := range weights {
		share := float64(total) / (h * float64(k+1))
		weights[k] = int(share)
		rest[k] = share - float64(weights[k])
		left -= weights[k]
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rest[b], rest[a]) })
	for _, k := range order[:left] {
		weights[k]++
	}
	return weights
}

// seqLen is the number of precomputed requests; ops beyond it wrap around.
const seqLen = 1 << 16

type entry struct {
	name   string
	path   string
	weight int
	req    serve.Request

	body   []byte
	fp     string // engine fingerprint, as the handler computes it
	first  []byte // set-up's first (cache-filling) response
	ref    []byte // normalised reference response
	cached bool   // whether the handler serves it from the state-space cache
}

// exhaustive reports whether the request checks only exhaustive properties,
// which the handler decides on a cached state space.
func (e *entry) exhaustive() bool {
	if e.path != "/v1/check" {
		return false
	}
	for _, p := range e.req.Props {
		if lp, err := dining.LookupProperty(p); err != nil || lp.Kind() != dining.ExhaustiveProperty {
			return false
		}
	}
	return true
}

// catalogue lists the configurations the clients request, in popularity
// rank: the paper's theorem instances (Theorems 1-4), the rings, the fault
// models, then the statistical check and the trials. The weights follow
// zipfWeights over that rank. Every exhaustive entry fits the default cache
// together; the seed picks the sampling seeds of the statistical and trial
// entries.
func catalogue(seed uint64) []entry {
	r := rand.New(rand.NewPCG(seed, 0x5e12e))
	protected := []dining.PhilID{0, 1, 2}
	entries := []entry{
		{name: "t1min-LR1-p012", path: "/v1/check",
			req: serve.Request{Topology: "theorem1-minimal", Algorithm: "LR1", Protected: protected}},
		{name: "t1min-GDP1", path: "/v1/check",
			req: serve.Request{Topology: "theorem1-minimal", Algorithm: "GDP1"}},
		{name: "t2min-LR2", path: "/v1/check",
			req: serve.Request{Topology: "theorem2-minimal", Algorithm: "LR2"}},
		{name: "t2min-GDP2", path: "/v1/check",
			req: serve.Request{Topology: "theorem2-minimal", Algorithm: "GDP2"}},
		{name: "ring3-LR1", path: "/v1/check",
			req: serve.Request{Topology: "ring", N: 3, Algorithm: "LR1"}},
		{name: "ring4-LR1", path: "/v1/check",
			req: serve.Request{Topology: "ring", N: 4, Algorithm: "LR1"}},
		{name: "ring5-LR1-sym", path: "/v1/check",
			req: serve.Request{Topology: "ring", N: 5, Algorithm: "LR1", Symmetry: true}},
		{name: "theta-LR1-delayed", path: "/v1/check",
			req: serve.Request{Topology: "theta", Algorithm: "LR1", Faults: "delayed-grants:0.2,2"}},
		{name: "theta-GDP1-crash", path: "/v1/check",
			req: serve.Request{Topology: "theta", Algorithm: "GDP1", Faults: "crash-rejoin",
				Props: []string{dining.ProgressUnderFaults}}},
		{name: "stat-progress", path: "/v1/check",
			req: serve.Request{Topology: "ring", N: 5, Algorithm: "GDP1", Scheduler: "random",
				Props: []string{dining.StatisticalProgress}, Trials: 20, MaxSteps: 2000, Seed: r.Uint64()}},
		{name: "trials-adversary", path: "/v1/trials",
			req: serve.Request{Topology: "figure1a", Algorithm: "LR1", Scheduler: "adversary",
				Trials: 4, MaxSteps: 2000, Seed: r.Uint64()}},
	}
	for k, wt := range zipfWeights(len(entries), deckLen) {
		entries[k].weight = wt
	}
	return entries
}

// requestSequence deals decks of the weighted catalogue, each shuffled by a
// generator seeded from the workload seed and the deck number.
func requestSequence(seed uint64, entries []entry) []uint8 {
	var deck []uint8
	for k, e := range entries {
		for range e.weight {
			deck = append(deck, uint8(k))
		}
	}
	seq := make([]uint8, 0, seqLen)
	for d := uint64(0); len(seq) < seqLen; d++ {
		r := rand.New(rand.NewPCG(seed, d))
		r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		seq = append(seq, deck...)
	}
	return seq
}

type serveMix struct {
	entries []entry
	seq     []uint8
	tr      *tracer

	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	cancel  context.CancelFunc
	client  *http.Client
	url     string
	stats0  serve.CacheStats

	bufs [2][]byte // per-client response buffers
	norm [2][]byte // per-client normalised responses

	mu         sync.Mutex
	byEntry    [][]time.Duration // untraced latencies per catalogue entry
	firstLine  []float64         // ms, traced ops
	respBytes  []float64
	hitRatio   float64
	explorings int64
}

func setupServeMix(ctx context.Context, seed uint64, tr *tracer) (instance, error) {
	w := &serveMix{entries: catalogue(seed), tr: tr}
	w.byEntry = make([][]time.Duration, len(w.entries))
	w.seq = requestSequence(seed, w.entries)

	base, cancel := context.WithCancel(ctx)
	w.cancel = cancel
	w.srv = serve.New(serve.Options{BaseContext: base})
	var h http.Handler = w.srv.Handler()
	if tr != nil {
		h = w.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	w.url = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.httpSrv.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: len(w.bufs),
		DisableCompression:  true,
	}}

	if err := w.warm(ctx); err != nil {
		w.close()
		return nil, err
	}
	w.stats0 = w.srv.CacheStats()
	return w, nil
}

// warm sends every catalogue entry twice: the first request fills the cache,
// the second is the hot reference every timed response must equal. The first
// response is kept for finish, which checks it against the library.
func (w *serveMix) warm(ctx context.Context) error {
	for k := range w.entries {
		e := &w.entries[k]
		body, err := json.Marshal(e.req)
		if err != nil {
			return err
		}
		e.body = body
		e.cached = e.exhaustive()
		eng, err := engineFor(e.req)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		e.fp = eng.Fingerprint()
		first, err := w.post(ctx, e, 0, "", nil)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		e.first = bytes.Clone(first)
		hot, err := w.post(ctx, e, 0, "", nil)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if e.cached && !bytes.Contains(hot, []byte(`"cache":"hit"`)) {
			return fmt.Errorf("%s: second request was not a cache hit", e.name)
		}
		e.ref = normalise(nil, hot, e.path == "/v1/trials")
	}
	return nil
}

// checkAgainstLibrary compares the verdicts of a /v1/check response, and the
// configuration fingerprint it echoes, with what the library computes for
// the same engine.
func checkAgainstLibrary(ctx context.Context, e *entry, resp []byte) error {
	var results []dining.PropertyResult
	trials := 0
	for _, line := range bytes.Split(bytes.TrimSpace(resp), []byte("\n")) {
		var ev serve.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		if ev.Config == nil || ev.Config.Fingerprint != e.fp {
			return fmt.Errorf("response line %d does not echo fingerprint %s", ev.Seq, e.fp)
		}
		switch {
		case ev.Result != nil:
			results = append(results, *ev.Result)
		case ev.Trial != nil:
			trials++
		}
	}
	if e.path == "/v1/trials" {
		if trials != e.req.Trials {
			return fmt.Errorf("%d trial lines, want %d", trials, e.req.Trials)
		}
		return nil
	}
	eng, err := engineFor(e.req)
	if err != nil {
		return err
	}
	want, err := eng.CheckAll(ctx, e.req.Props...)
	if err != nil {
		return err
	}
	if len(results) != len(want) {
		return fmt.Errorf("%d results, the library gives %d", len(results), len(want))
	}
	for i := range want {
		g, l := results[i], want[i]
		if g.Property != l.Property || g.Passed != l.Passed || g.States != l.States || g.Detail != l.Detail {
			return fmt.Errorf("%s: server says passed=%v (%s), library says passed=%v (%s)",
				l.Property, g.Passed, g.Detail, l.Passed, l.Detail)
		}
	}
	return nil
}

// engineFor assembles the engine a request describes, with the server's
// defaults, as the handler does.
func engineFor(req serve.Request) (*dining.Engine, error) {
	topo, err := dining.NewTopology(req.Topology, req.N)
	if err != nil {
		return nil, err
	}
	opts := []dining.Option{
		dining.WithSeed(req.Seed),
		dining.WithMaxSteps(req.MaxSteps),
		dining.WithAlgorithmOptions(dining.AlgorithmOptions{M: req.M}),
	}
	if req.Trials > 0 {
		opts = append(opts, dining.WithTrials(req.Trials))
	}
	if len(req.Protected) > 0 {
		opts = append(opts, dining.WithProtected(req.Protected...))
	}
	if req.Scheduler != "" {
		opts = append(opts, dining.WithScheduler(req.Scheduler))
	}
	if req.Faults != "" {
		opts = append(opts, dining.WithFaults(req.Faults))
	}
	if req.Symmetry {
		opts = append(opts, dining.WithSymmetry())
	}
	return dining.New(topo, req.Algorithm, opts...)
}

// clients is 2, or 1 on a single-CPU machine: no more clients than CPUs.
func (w *serveMix) clients() int { return min(len(w.bufs), runtime.NumCPU()) }

// post sends one request and returns the whole response body, read into
// client c's buffer. opTag, when set, is sent in the op header; first, when
// set, notes when the first response line arrives.
func (w *serveMix) post(ctx context.Context, e *entry, c int, opTag string, first *firstLineReader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+e.path, bytes.NewReader(e.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opTag != "" {
		req.Header.Set(opHeader, opTag)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body io.Reader = resp.Body
	if first != nil {
		first.r = body
		body = first
	}
	buf := bytes.NewBuffer(w.bufs[c][:0])
	_, err = buf.ReadFrom(body)
	w.bufs[c] = buf.Bytes()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, firstLine(buf.Bytes()))
	}
	if bytes.Contains(buf.Bytes(), []byte(`"event":"error"`)) {
		return nil, fmt.Errorf("error line: %s", buf.Bytes())
	}
	return buf.Bytes(), nil
}

func (w *serveMix) op(ctx context.Context, c int, i int64, tr *tracer) (time.Duration, error) {
	k := w.seq[i%seqLen]
	e := &w.entries[k]
	if tr == nil {
		start := time.Now()
		resp, err := w.post(ctx, e, c, "", nil)
		lat := time.Since(start)
		w.mu.Lock()
		w.byEntry[k] = append(w.byEntry[k], lat)
		w.mu.Unlock()
		if err != nil {
			return lat, fmt.Errorf("op %d (%s): %w", i, e.name, err)
		}
		return lat, w.verify(c, i, e, resp)
	}

	root := tr.open("op", i, -1)
	s := tr.open("dining.new", i, root)
	eng, err := engineFor(e.req)
	tr.close(s)
	if err != nil {
		return 0, err
	}
	s = tr.open("dining.fingerprint", i, root)
	fp := eng.Fingerprint()
	tr.close(s)
	if fp != e.fp {
		return 0, fmt.Errorf("op %d (%s): fingerprint %s, want %s", i, e.name, fp, e.fp)
	}

	h := tr.open("serve.http", i, root)
	start := time.Now()
	first := &firstLineReader{start: start}
	resp, err := w.post(ctx, e, c, strconv.FormatInt(i, 10)+"/"+strconv.Itoa(int(h)), first)
	lat := time.Since(start)
	tr.close(h)
	tr.close(root)
	if err != nil {
		return lat, fmt.Errorf("op %d (%s): %w", i, e.name, err)
	}
	w.mu.Lock()
	w.firstLine = append(w.firstLine, ms(first.at))
	w.respBytes = append(w.respBytes, float64(len(resp)))
	w.mu.Unlock()
	return lat, w.verify(c, i, e, resp)
}

// firstLineReader notes when the first newline of a response arrives.
type firstLineReader struct {
	r     io.Reader
	start time.Time
	at    time.Duration
	seen  bool
}

func (f *firstLineReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if !f.seen && bytes.IndexByte(p[:n], '\n') >= 0 {
		f.seen, f.at = true, time.Since(f.start)
	}
	return n, err
}

// verify checks a timed response against its entry's hot reference.
func (w *serveMix) verify(c int, i int64, e *entry, resp []byte) error {
	if e.cached && !bytes.Contains(resp, []byte(`"cache":"hit"`)) {
		return fmt.Errorf("op %d (%s): not a cache hit", i, e.name)
	}
	w.norm[c] = normalise(w.norm[c][:0], resp, e.path == "/v1/trials")
	if !bytes.Equal(w.norm[c], e.ref) {
		return fmt.Errorf("op %d (%s): response differs from the reference", i, e.name)
	}
	return nil
}

// normalise appends resp to dst without the fields that legitimately differ
// between two responses to one request: the server-assigned request id, the
// line sequence number and the elapsed wall-clock time. None of these keys
// occurs inside the payloads. Trial lines stream in completion order, so
// with sortLines the lines are compared as a sorted set.
func normalise(dst, resp []byte, sortLines bool) []byte {
	start := len(dst)
	for len(resp) > 0 {
		i, key := nextVolatile(resp)
		if i < 0 {
			dst = append(dst, resp...)
			break
		}
		dst = append(dst, resp[:i]...)
		rest := resp[i+len(key):]
		if key == `"id":"` {
			rest = rest[bytes.IndexByte(rest, '"')+1:]
		} else {
			j := 0
			for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
				j++
			}
			rest = rest[j:]
		}
		resp = rest
	}
	if sortLines {
		lines := bytes.SplitAfter(dst[start:], []byte("\n"))
		slices.SortFunc(lines, bytes.Compare)
		dst = append(dst[:start], bytes.Join(lines, nil)...)
	}
	return dst
}

var volatileKeys = []string{`"id":"`, `"seq":`, `"elapsed_ms":`}

// nextVolatile returns the position and key of the first volatile field.
func nextVolatile(b []byte) (int, string) {
	at, key := -1, ""
	for _, k := range volatileKeys {
		if j := bytes.Index(b, []byte(k)); j >= 0 && (at < 0 || j < at) {
			at, key = j, k
		}
	}
	return at, key
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// middleware records the handler's span for requests a traced op sent.
func (w *serveMix) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseOpHeader(r.Header.Get(opHeader))
		if !ok {
			h.ServeHTTP(rw, r)
			return
		}
		s := w.tr.open("serve.handler", op, parent)
		h.ServeHTTP(rw, r)
		w.tr.close(s)
	})
}

func parseOpHeader(v string) (op int64, parent int32, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	p, err2 := strconv.ParseInt(b, 10, 32)
	return op, int32(p), err1 == nil && err2 == nil
}

// finish checks the server's set-up responses against the library, outside
// the timed set-up and the measuring window, and counts the wrong ones.
func (w *serveMix) finish(ctx context.Context) (int64, error) {
	var failed int64
	var firstErr error
	for k := range w.entries {
		e := &w.entries[k]
		if err := checkAgainstLibrary(ctx, e, e.first); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.name, err)
			}
		}
	}
	st := w.srv.CacheStats()
	hits := st.Hits - w.stats0.Hits
	lookups := hits + st.Misses - w.stats0.Misses + st.Shared - w.stats0.Shared
	w.mu.Lock()
	defer w.mu.Unlock()
	if lookups > 0 {
		w.hitRatio = float64(hits) / float64(lookups)
	}
	w.explorings = st.Explorations
	return failed, firstErr
}

func (w *serveMix) layers(m map[string]float64, self map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m["dining.new_us"] = self["dining.new"] / 1e3
	m["dining.fingerprint_us"] = self["dining.fingerprint"] / 1e3
	m["serve.handler_ms"] = self["serve.handler"] / 1e6
	m["serve.transport_ms"] = self["serve.http"] / 1e6
	m["serve.first_line_ms"] = median(w.firstLine)
	m["serve.response_bytes"] = median(w.respBytes)
	m["serve.cache_hit_ratio"] = w.hitRatio
	m["serve.explorations"] = float64(w.explorings)
}

// report prints each catalogue entry's share of the ops and median latency.
func (w *serveMix) report(loopStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, e := range w.entries {
		lats := sortedCopy(w.byEntry[k])
		fmt.Printf("# serve-mix %-18s weight %2d/%d ops %5d p50 %8.3f ms\n",
			e.name, e.weight, deckLen, len(lats), ms(percentile(lats, 50)))
	}
}

func (w *serveMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.httpSrv.Shutdown(ctx) // a straggling connection is closed by Shutdown's deadline
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# serve-mix: server: %v\n", err)
	}
	w.client.CloseIdleConnections()
	w.cancel()
}
