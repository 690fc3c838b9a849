package main

import (
	"context"
	"os"
	"sync/atomic"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scan"
)

// follower keeps the campaign's analysis state current off the
// engine's merge path. Each checkpoint hands it the committed sink
// offset and a coalescing kick; its goroutine folds the sealed blocks
// up to the newest offset into a resident core.HotSuite, decoding every
// block exactly once, while the engine keeps merging. Bounding each
// fold by a checkpoint offset — never the live file size — keeps the
// split between folded prefix and post-campaign tail a pure function
// of the checkpoint schedule.
type follower struct {
	hot *core.HotSuite
	f   *os.File // long-lived samples handle, read-only
	cfg scan.Config

	mark atomic.Int64  // newest committed offset a checkpoint handed over
	kick chan struct{} // capacity 1: kicks arriving mid-fold coalesce
	stop chan struct{}
	done chan struct{}
	err  error // first fold error; read only after done closes
}

// startFollower launches the follower goroutine over the store's
// samples file. Its lifetime is parent's "snapshot.follow" child span,
// and its scans nest under that span.
func startFollower(hot *core.HotSuite, samplesPath string, cfg scan.Config, parent *obs.Span) (*follower, error) {
	f, err := os.Open(samplesPath)
	if err != nil {
		return nil, err
	}
	fl := &follower{
		hot: hot, f: f, cfg: cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fl.run(parent.Child("snapshot.follow"))
	return fl, nil
}

// Checkpoint records a durable sink offset and wakes the follower
// without blocking the caller — the engine's merger goroutine.
func (fl *follower) Checkpoint(offset int64) {
	fl.mark.Store(offset)
	select {
	case fl.kick <- struct{}{}:
	default:
	}
}

func (fl *follower) run(span *obs.Span) {
	defer close(fl.done)
	defer span.End()
	ctx := obs.ContextWith(context.Background(), span)
	for {
		select {
		case <-fl.kick:
			fl.fold(ctx)
		case <-fl.stop:
			fl.fold(ctx) // the newest offset may have arrived with no fold since
			return
		}
	}
}

// fold advances the suite to the newest checkpoint offset. After the
// first error it does nothing: the resident state is then abandoned.
func (fl *follower) fold(ctx context.Context) {
	if fl.err == nil {
		_, fl.err = fl.advance(ctx, fl.mark.Load())
	}
}

// advance folds the complete blocks between the suite's covered
// boundary and end.
func (fl *follower) advance(ctx context.Context, end int64) (scan.Stats, error) {
	covered, _ := fl.hot.Covered()
	if end <= covered {
		return scan.Stats{}, nil
	}
	delta, stableEnd, err := colf.DeltaBlocksAvailable(fl.f, end, covered)
	if err != nil {
		return scan.Stats{}, err
	}
	return fl.hot.Advance(ctx, fl.f, end, delta, stableEnd, fl.cfg)
}

// Finish folds up to the last checkpoint, stops the goroutine, and
// returns the first fold error. The suite is then the caller's alone.
func (fl *follower) Finish() error {
	close(fl.stop)
	<-fl.done
	return fl.err
}

// Tail folds everything the closed store holds past the last
// checkpoint, its scan nested under ctx's span. Call it after Finish.
func (fl *follower) Tail(ctx context.Context) (scan.Stats, error) {
	fi, err := fl.f.Stat()
	if err != nil {
		return scan.Stats{}, err
	}
	return fl.advance(ctx, fi.Size())
}

// Close releases the samples handle.
func (fl *follower) Close() error { return fl.f.Close() }
