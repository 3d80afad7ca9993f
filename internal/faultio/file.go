package faultio

import (
	"os"
	"sync"
	"time"
)

// This file extends the byte-budget writer/reader model with a disk-chaos
// file: a real *os.File whose Write, Sync and Truncate calls can be made to
// fail with ENOSPC/EIO-shaped errors or stall, under the control of a
// shared Injector that a chaos driver flips while traffic is in flight.
// The *File type deliberately mirrors the method set wal.File needs, so an
// Injector's Open slides straight under wal.OpenFile without faultio
// importing the wal package.

// ErrNoSpace and ErrIO model the two storage errors a healthy process most
// needs to survive: a disk filling up mid-record and a device-level I/O
// failure. Both match ErrInjected via errors.Is, so tests can assert "this
// was ours" without caring which flavor fired.
var (
	ErrNoSpace error = injectedError("no space left on device (injected ENOSPC)")
	ErrIO      error = injectedError("input/output error (injected EIO)")
)

type injectedError string

func (e injectedError) Error() string { return "faultio: " + string(e) }

// Is makes every injected flavor satisfy errors.Is(err, ErrInjected).
func (e injectedError) Is(target error) bool { return target == ErrInjected }

// Injector is a concurrency-safe fault controller shared by every File it
// opens. Faults are armed as one-shot budgets ("fail the next n syncs") so
// a chaos driver can fire bursts while writers run: one failed fsync
// exercises the WAL's inline rewind-and-retry repair, two in a row defeat
// the retry and poison the log, driving the server's degraded mode.
type Injector struct {
	mu         sync.Mutex
	failWrites int
	writeErr   error
	failSyncs  int
	syncErr    error
	delay      time.Duration

	writes, injected int64
}

// NewInjector returns a controller with no faults armed.
func NewInjector() *Injector { return &Injector{} }

// FailWrites arms the next n Write calls to fail with err (ErrNoSpace when
// err is nil). A failing write delivers a partial prefix first, like a disk
// filling mid-record, so the caller's torn-tail handling is exercised too.
func (i *Injector) FailWrites(n int, err error) {
	if err == nil {
		err = ErrNoSpace
	}
	i.mu.Lock()
	i.failWrites, i.writeErr = n, err
	i.mu.Unlock()
}

// FailSyncs arms the next n Sync calls to fail with err (ErrIO when nil).
func (i *Injector) FailSyncs(n int, err error) {
	if err == nil {
		err = ErrIO
	}
	i.mu.Lock()
	i.failSyncs, i.syncErr = n, err
	i.mu.Unlock()
}

// SetDelay makes every Write and Sync stall for d first — the slow-disk
// flavor. Zero clears it.
func (i *Injector) SetDelay(d time.Duration) {
	i.mu.Lock()
	i.delay = d
	i.mu.Unlock()
}

// Clear disarms every pending fault and delay; counters are retained.
func (i *Injector) Clear() {
	i.mu.Lock()
	i.failWrites, i.failSyncs = 0, 0
	i.delay = 0
	i.mu.Unlock()
}

// Injected reports how many faults have actually fired — the number a
// chaos harness checks to prove its run was not vacuously clean.
func (i *Injector) Injected() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// Writes reports the writes observed across all files.
func (i *Injector) Writes() int64 { i.mu.Lock(); defer i.mu.Unlock(); return i.writes }

// takeWrite consumes one write decision: the stall to apply and the error
// to inject, if any.
func (i *Injector) takeWrite() (time.Duration, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.writes++
	d := i.delay
	if i.failWrites > 0 {
		i.failWrites--
		i.injected++
		return d, i.writeErr
	}
	return d, nil
}

// takeSync consumes one sync decision.
func (i *Injector) takeSync() (time.Duration, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	d := i.delay
	if i.failSyncs > 0 {
		i.failSyncs--
		i.injected++
		return d, i.syncErr
	}
	return d, nil
}

// Open opens (creating if absent) a real file whose writes, syncs and
// truncates answer to the injector. The signature matches wal.OpenFileFunc.
func (i *Injector) Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{f: f, inj: i}, nil
}

// File is one injector-controlled file handle.
type File struct {
	f   *os.File
	inj *Injector
}

func (f *File) Read(p []byte) (int, error) { return f.f.Read(p) }

// Write delivers the bytes unless a write fault is armed, in which case a
// partial prefix reaches the disk (a short write, the realistic ENOSPC
// artifact) and the injected error is returned.
func (f *File) Write(p []byte) (int, error) {
	d, err := f.inj.takeWrite()
	if d > 0 {
		time.Sleep(d)
	}
	if err != nil {
		n := 0
		if len(p) > 1 {
			n, _ = f.f.Write(p[:len(p)/2])
		}
		return n, err
	}
	return f.f.Write(p)
}

// Sync fsyncs unless a sync fault is armed. On an injected failure the
// data's durability is left genuinely unknown — exactly the fsyncgate
// semantics the WAL's repair path must assume.
func (f *File) Sync() error {
	d, err := f.inj.takeSync()
	if d > 0 {
		time.Sleep(d)
	}
	if err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *File) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }
func (f *File) Truncate(size int64) error                    { return f.f.Truncate(size) }
func (f *File) Stat() (os.FileInfo, error)                   { return f.f.Stat() }
func (f *File) Close() error                                 { return f.f.Close() }
