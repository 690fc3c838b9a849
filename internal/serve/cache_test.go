package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheCoalesce(t *testing.T) {
	c := newCache()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var fills atomic.Int32
	fill := func() (*response, error) {
		fills.Add(1)
		entered <- struct{}{}
		<-block
		return &response{status: 200, body: []byte("x")}, nil
	}

	// Leader enters the fill and blocks; followers must wait on it, not
	// run their own. They start only once the leader is inside the fill,
	// so none of them can win the race to lead.
	var wg sync.WaitGroup
	var waitedCount atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err, hit, waited := c.do("k", fill)
		if err != nil || hit || waited || string(resp.body) != "x" {
			t.Errorf("leader: resp=%v err=%v hit=%v waited=%v", resp, err, hit, waited)
		}
	}()
	<-entered
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err, hit, waited := c.do("k", fill)
			if err != nil || string(resp.body) != "x" {
				t.Errorf("follower: resp=%v err=%v", resp, err)
			}
			if waited && !hit {
				waitedCount.Add(1)
			}
		}()
	}
	close(block)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}

	// Settled entry: a plain hit, no new fill.
	_, err, hit, _ := c.do("k", fill)
	if err != nil || !hit {
		t.Fatalf("after settle: err=%v hit=%v", err, hit)
	}
	if got := fills.Load(); got != 1 {
		t.Fatalf("settled hit re-ran fill (%d)", got)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newCache()
	boom := errors.New("boom")
	calls := 0
	if _, err, _, _ := c.do("k", func() (*response, error) { calls++; return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	resp, err, hit, _ := c.do("k", func() (*response, error) { calls++; return &response{body: []byte("ok")}, nil })
	if err != nil || hit || string(resp.body) != "ok" {
		t.Fatalf("retry after error: resp=%v err=%v hit=%v", resp, err, hit)
	}
	if calls != 2 {
		t.Fatalf("fill calls = %d, want 2 (errors must not cache)", calls)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache()
	calls := 0
	fill := func() (*response, error) { calls++; return &response{body: []byte("v")}, nil }
	c.do("k", fill)
	if _, _, hit, _ := c.do("k", fill); !hit {
		t.Fatal("want hit before invalidation")
	}
	c.invalidate()
	if _, _, hit, _ := c.do("k", fill); hit {
		t.Fatal("hit after invalidation")
	}
	if calls != 2 {
		t.Fatalf("fill calls = %d, want 2", calls)
	}
}
