package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dining"
)

// exploreSpace explores a small engine once; cache tests reuse the result
// as the payload behind arbitrary keys.
func exploreSpace(t *testing.T, topo *dining.Topology, algorithm string) *dining.StateSpace {
	t.Helper()
	eng, err := dining.New(topo, algorithm)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := eng.Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestCacheHitAfterMiss checks the basic contract: the first Get explores
// and caches, the second is a hit with no second exploration, and the
// statuses reported to both the callback and the return value agree.
func TestCacheHitAfterMiss(t *testing.T) {
	t.Parallel()
	ss := exploreSpace(t, dining.Ring(3), dining.LR1)
	c := NewCache(0)
	explorations := 0
	explore := func() (*dining.StateSpace, error) { explorations++; return ss, nil }

	var cbStatus Status
	got, status, err := c.Get(context.Background(), "k", func(st Status) { cbStatus = st }, explore)
	if err != nil || got != ss || status != StatusMiss || cbStatus != StatusMiss {
		t.Fatalf("first Get = (%p, %q, %v) cb %q, want (%p, miss, nil) cb miss", got, status, err, cbStatus, ss)
	}
	got, status, err = c.Get(context.Background(), "k", func(st Status) { cbStatus = st }, explore)
	if err != nil || got != ss || status != StatusHit || cbStatus != StatusHit {
		t.Fatalf("second Get = (%p, %q, %v) cb %q, want (%p, hit, nil) cb hit", got, status, err, cbStatus, ss)
	}
	if explorations != 1 {
		t.Errorf("explore ran %d times, want 1", explorations)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Explorations != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 exploration / 1 entry", st)
	}
}

// TestCacheSingleflight pins the satellite requirement: concurrent Gets for
// one key run exactly one exploration. The exploration blocks on a gate
// until every waiter has observed its shared status, so the overlap is
// deterministic, not a race the test hopes to win.
func TestCacheSingleflight(t *testing.T) {
	t.Parallel()
	const waiters = 7
	ss := exploreSpace(t, dining.Ring(3), dining.LR1)
	c := NewCache(0)

	gate := make(chan struct{})
	var explorations int
	explore := func() (*dining.StateSpace, error) {
		explorations++
		<-gate
		return ss, nil
	}

	missObserved := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, status, err := c.Get(context.Background(), "k",
			func(Status) { close(missObserved) }, explore)
		if err != nil || got != ss || status != StatusMiss {
			t.Errorf("leader Get = (%p, %q, %v), want (%p, miss, nil)", got, status, err, ss)
		}
	}()
	<-missObserved

	sharedObserved := make(chan struct{}, waiters)
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, status, err := c.Get(context.Background(), "k",
				func(st Status) { sharedObserved <- struct{}{} }, explore)
			if err != nil || got != ss || status != StatusShared {
				t.Errorf("waiter Get = (%p, %q, %v), want (%p, shared, nil)", got, status, err, ss)
			}
		}()
	}
	for range waiters {
		<-sharedObserved
	}
	close(gate)
	wg.Wait()

	if explorations != 1 {
		t.Errorf("explore ran %d times for %d concurrent requests, want exactly 1", explorations, waiters+1)
	}
	st := c.Stats()
	if st.Explorations != 1 || st.Misses != 1 || st.Shared != waiters {
		t.Errorf("stats = %+v, want 1 exploration / 1 miss / %d shared", st, waiters)
	}
}

// TestCacheLRUEviction fills a small cache past its state budget and checks
// that the least-recently-used entry goes first — and that a re-request of
// the evicted key re-explores.
func TestCacheLRUEviction(t *testing.T) {
	t.Parallel()
	a := exploreSpace(t, dining.Ring(3), dining.LR1)
	b := exploreSpace(t, dining.Ring(3), dining.GDP1)
	// Cap admits either space alone but not both together.
	c := NewCache(a.NumStates() + b.NumStates() - 1)
	explorations := 0
	get := func(key string, ss *dining.StateSpace) Status {
		_, status, err := c.Get(context.Background(), key, nil,
			func() (*dining.StateSpace, error) { explorations++; return ss, nil })
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	if st := get("a", a); st != StatusMiss {
		t.Fatalf("first a = %q, want miss", st)
	}
	if st := get("b", b); st != StatusMiss {
		t.Fatalf("first b = %q, want miss", st)
	}
	// Inserting b evicted a (the LRU tail): a re-explores, b stays hot.
	if st := get("b", b); st != StatusHit {
		t.Errorf("b after eviction = %q, want hit", st)
	}
	if st := get("a", a); st != StatusMiss {
		t.Errorf("a after eviction = %q, want miss (evicted)", st)
	}
	if explorations != 3 {
		t.Errorf("explore ran %d times, want 3 (a, b, a-again)", explorations)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 evictions and 1 live entry", st)
	}
}

// TestCacheKeepsOversizedNewest pins the keep-newest rule: a space larger
// than the whole budget is still retained for the request that paid for it.
func TestCacheKeepsOversizedNewest(t *testing.T) {
	t.Parallel()
	ss := exploreSpace(t, dining.Ring(3), dining.LR1)
	c := NewCache(1) // smaller than any real space
	if _, status, err := c.Get(context.Background(), "k", nil,
		func() (*dining.StateSpace, error) { return ss, nil }); err != nil || status != StatusMiss {
		t.Fatalf("Get = (%q, %v), want (miss, nil)", status, err)
	}
	if _, status, err := c.Get(context.Background(), "k", nil, nil); err != nil || status != StatusHit {
		t.Fatalf("oversized entry not retained: Get = (%q, %v), want (hit, nil)", status, err)
	}
}

// TestCacheErrorNotCached checks that a failed exploration is not cached:
// the error reaches the caller, and the next Get for the key retries.
func TestCacheErrorNotCached(t *testing.T) {
	t.Parallel()
	ss := exploreSpace(t, dining.Ring(3), dining.LR1)
	c := NewCache(0)
	boom := errors.New("exploration failed")
	if _, status, err := c.Get(context.Background(), "k", nil,
		func() (*dining.StateSpace, error) { return nil, boom }); !errors.Is(err, boom) || status != StatusMiss {
		t.Fatalf("failing Get = (%q, %v), want (miss, boom)", status, err)
	}
	got, status, err := c.Get(context.Background(), "k", nil,
		func() (*dining.StateSpace, error) { return ss, nil })
	if err != nil || got != ss || status != StatusMiss {
		t.Fatalf("retry Get = (%p, %q, %v), want fresh miss returning the space", got, status, err)
	}
}

// TestCachePanickingExplore is the poisoned-flight regression: an explore
// func that panics must not strand its flight. The leader and a concurrent
// waiter both get an error naming the fingerprint, and the next Get for the
// key is a fresh miss that explores again — it neither blocks on a dead
// flight nor reports "shared".
func TestCachePanickingExplore(t *testing.T) {
	t.Parallel()
	ss := exploreSpace(t, dining.Ring(3), dining.LR1)
	c := NewCache(0)
	const key = "fp-poison"
	gate := make(chan struct{})
	missObserved := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), key, func(Status) { close(missObserved) },
			func() (*dining.StateSpace, error) {
				<-gate
				panic("explorer bug")
			})
		leaderErr <- err
	}()
	<-missObserved

	sharedObserved := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		_, status, err := c.Get(context.Background(), key, func(Status) { close(sharedObserved) }, nil)
		if status != StatusShared {
			t.Errorf("waiter status = %q, want shared", status)
		}
		waiterErr <- err
	}()
	<-sharedObserved
	close(gate)

	for _, got := range []struct {
		who string
		err error
	}{{"leader", <-leaderErr}, {"waiter", <-waiterErr}} {
		if got.err == nil || !strings.Contains(got.err.Error(), key) || !strings.Contains(got.err.Error(), "explorer bug") {
			t.Errorf("%s error = %v, want one naming fingerprint %q and the panic", got.who, got.err, key)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, status, err := c.Get(ctx, key, nil, func() (*dining.StateSpace, error) { return ss, nil })
	if err != nil || got != ss || status != StatusMiss {
		t.Fatalf("Get after the panic = (%p, %q, %v), want a fresh miss returning the space", got, status, err)
	}
	if st := c.Stats(); st.Explorations != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 explorations and 1 live entry", st)
	}
}

// TestCacheCancelledWaiter checks that a waiter whose context is cancelled
// mid-flight gets its context error while the exploration itself survives
// and is cached for later requests.
func TestCacheCancelledWaiter(t *testing.T) {
	t.Parallel()
	ss := exploreSpace(t, dining.Ring(3), dining.LR1)
	c := NewCache(0)
	gate := make(chan struct{})
	missObserved := make(chan struct{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.Get(context.Background(), "k",
			func(Status) { close(missObserved) },
			func() (*dining.StateSpace, error) { <-gate; return ss, nil })
		if err != nil {
			t.Errorf("leader Get failed: %v", err)
		}
	}()
	<-missObserved

	ctx, cancel := context.WithCancel(context.Background())
	sharedObserved := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func(Status) { close(sharedObserved) }, nil)
		waiterErr <- err
	}()
	<-sharedObserved
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(gate)
	<-done
	if _, status, err := c.Get(context.Background(), "k", nil, nil); err != nil || status != StatusHit {
		t.Errorf("post-flight Get = (%q, %v), want hit — cancellation must not poison the entry", status, err)
	}
}
