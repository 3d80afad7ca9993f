package server

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// loop is the one way the server runs background work: the follow pump, the
// storage probe, the shard-resync probe and a remote leader's sender each own
// one. Its goroutine runs job when woken, or once the wait job last returned
// has passed (idle: not until woken). A panic in job is logged with its stack
// and the loop carries on after maxWait. Close stops every loop.
type loop struct {
	name   string
	job    func() time.Duration
	logf   func(format string, args ...any)
	wakeC  chan struct{} // cap 1: a wake not yet taken
	cancel context.CancelFunc
	done   chan struct{}
	runs   atomic.Uint64 // jobs run, panicked or not
}

// maxWait is the longest wait in any probe's schedule, so every Retry-After
// that points at a probe is 1; idle is a wait that only a wake ends.
const (
	maxWait = time.Second
	idle    = time.Duration(1<<63 - 1)
)

// startLoop starts a loop whose job first runs after wait, and adds it to the
// loops Close stops.
func (s *Server) startLoop(name string, wait time.Duration, job func() time.Duration) *loop {
	ctx, cancel := context.WithCancel(context.Background())
	l := &loop{name: name, job: job, logf: s.logf, wakeC: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
	s.loops = append(s.loops, l)
	go func() {
		defer close(l.done)
		for {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
			case <-l.wakeC:
			case <-t.C:
			}
			t.Stop()
			if ctx.Err() != nil {
				return
			}
			wait = l.run()
		}
	}()
	return l
}

// wake has the loop run its job now, or right after the run in progress. A
// nil loop, a job this server does not have, ignores it.
func (l *loop) wake() {
	if l != nil {
		select {
		case l.wakeC <- struct{}{}:
		default:
		}
	}
}

// stop ends the loop and waits out a running job. It may be called again.
func (l *loop) stop() {
	l.cancel()
	<-l.done
}

// run runs the job once on the calling goroutine and returns its wait.
func (l *loop) run() (wait time.Duration) {
	l.runs.Add(1)
	defer func() {
		if v := recover(); v != nil {
			l.logf("server: %s panicked: %v\n%s", l.name, v, debug.Stack())
			wait = maxWait
		}
	}()
	return l.job()
}

// backoff is a probe's schedule for one target: it retries at once, then
// after 1 ms, doubling up to maxWait. Zero is a fresh schedule, and a success
// sets it back to zero. failed records a failed attempt and returns the wait
// before the next.
type backoff time.Duration

func (b *backoff) failed() time.Duration {
	*b = backoff(min(max(2*time.Duration(*b), time.Millisecond), maxWait))
	return time.Duration(*b)
}
