package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rangecube/internal/faultio"
	"rangecube/internal/telemetry"
)

// openFaulty opens a log through a fresh injector so tests can arm storage
// faults against the real append/recovery code.
func openFaulty(t *testing.T) (*Log, *faultio.Injector, string) {
	t.Helper()
	inj := faultio.NewInjector()
	path := filepath.Join(t.TempDir(), "w.wal")
	l, got, err := OpenFile(path, func(p string) (File, error) { return inj.Open(p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log recovered %d batches", len(got))
	}
	t.Cleanup(func() { l.Close() })
	return l, inj, path
}

func faultMetrics() (*Metrics, *telemetry.Counter, *telemetry.Counter) {
	faults, repairs := &telemetry.Counter{}, &telemetry.Counter{}
	return &Metrics{Faults: faults, Repairs: repairs}, faults, repairs
}

// scanFile re-reads the on-disk log and returns its committed prefix.
func scanFile(t *testing.T, path string) []Batch {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	batches, _, err := Scan(f)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

// One failed fsync: the rewind-and-retry path repairs the append in place.
// The batch is durable, the log stays healthy, and a fresh scan sees a clean
// file with no torn bytes.
func TestAppendRepairsSingleFsyncFault(t *testing.T) {
	l, inj, path := openFaulty(t)
	met, faults, repairs := faultMetrics()
	l.SetMetrics(met)

	bs := testBatches(3)
	if err := l.Append(bs[0]); err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(1, faultio.ErrIO)
	if err := l.Append(bs[1]); err != nil {
		t.Fatalf("repairable fault surfaced: %v", err)
	}
	if err := l.Append(bs[2]); err != nil {
		t.Fatal(err)
	}
	if l.Poisoned() != nil {
		t.Fatalf("healthy log reports poisoned: %v", l.Poisoned())
	}
	if faults.Value() != 1 || repairs.Value() != 1 {
		t.Fatalf("faults=%d repairs=%d, want 1/1", faults.Value(), repairs.Value())
	}
	if got := scanFile(t, path); len(got) != 3 || got[2].Seq != 3 {
		t.Fatalf("scan after repair: %d batches", len(got))
	}
	// The committed size must account for each record exactly once even
	// though one was written twice.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != l.Size() {
		t.Fatalf("file size %d != committed size %d", info.Size(), l.Size())
	}
}

// A short write (ENOSPC mid-record) leaves a torn tail; the repair truncates
// it away and the retry lands the full record.
func TestAppendRepairsShortWrite(t *testing.T) {
	l, inj, path := openFaulty(t)
	met, faults, repairs := faultMetrics()
	l.SetMetrics(met)

	bs := testBatches(2)
	if err := l.Append(bs[0]); err != nil {
		t.Fatal(err)
	}
	inj.FailWrites(1, faultio.ErrNoSpace)
	if err := l.Append(bs[1]); err != nil {
		t.Fatalf("repairable short write surfaced: %v", err)
	}
	if faults.Value() != 1 || repairs.Value() != 1 {
		t.Fatalf("faults=%d repairs=%d, want 1/1", faults.Value(), repairs.Value())
	}
	if got := scanFile(t, path); len(got) != 2 {
		t.Fatalf("scan after short-write repair: %d batches", len(got))
	}
}

// Two consecutive fsync failures defeat the single retry: the append fails
// with ErrPoisoned, the committed prefix on disk is intact, and every later
// append fails fast without touching the file.
func TestAppendPoisonsAfterRepeatedFaults(t *testing.T) {
	l, inj, path := openFaulty(t)
	met, faults, _ := faultMetrics()
	l.SetMetrics(met)

	bs := testBatches(3)
	if err := l.Append(bs[0]); err != nil {
		t.Fatal(err)
	}
	// Burst of sync failures: the append's fsync, the rewind's fsync and
	// the retry all draw from the budget, so a burst of 4 is unrepairable.
	inj.FailSyncs(4, faultio.ErrIO)
	if errFirst := l.Append(bs[1]); !errors.Is(errFirst, ErrPoisoned) {
		t.Fatalf("append after unrepairable fault: %v, want ErrPoisoned", errFirst)
	}
	if l.Poisoned() == nil {
		t.Fatal("log not poisoned after failed repair")
	}
	inj.Clear()
	writesBefore := inj.Writes()
	if err := l.Append(bs[2]); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned log: %v, want ErrPoisoned", err)
	}
	if inj.Writes() != writesBefore {
		t.Fatal("poisoned append touched the file")
	}
	if faults.Value() < 1 {
		t.Fatalf("faults=%d, want >=1", faults.Value())
	}
	// The acked prefix survives: batch 1 is on disk, the failed batch 2 is
	// not (or is a torn tail Scan discards).
	got := scanFile(t, path)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("committed prefix after poisoning: %d batches", len(got))
	}
}

// Reset must not report success when the post-truncate fsync fails — the
// on-disk length would be unproven — and the failure poisons the log and
// counts as one fault.
func TestResetFsyncFailurePoisons(t *testing.T) {
	l, inj, _ := openFaulty(t)
	met, faults, _ := faultMetrics()
	l.SetMetrics(met)
	if err := l.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(1, faultio.ErrIO)
	if err := l.Reset(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Reset with failed fsync: %v, want ErrPoisoned", err)
	}
	if got := faults.Value(); got != 1 {
		t.Fatalf("Faults = %d after a Reset fsync failure poisoned the log, want 1", got)
	}
	inj.Clear()
	if err := l.Append(testBatches(2)[1]); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poisoned reset: %v, want ErrPoisoned", err)
	}
}

// Create supersedes a poisoned log wholesale: fresh header, empty committed
// prefix, appends work again on the new handle.
func TestCreateSupersedesPoisonedLog(t *testing.T) {
	l, inj, path := openFaulty(t)
	if err := l.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	inj.FailSyncs(8, faultio.ErrNoSpace)
	if err := l.Append(testBatches(2)[1]); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("expected poisoning, got %v", err)
	}
	inj.Clear()

	nl, err := Create(path, func(p string) (File, error) { return inj.Open(p) })
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	b := Batch{Seq: 7, Updates: []Update{{Coords: []int{1, 2, 3}, Delta: 42}}}
	if err := nl.Append(b); err != nil {
		t.Fatal(err)
	}
	got := scanFile(t, path)
	if len(got) != 1 || got[0].Seq != 7 {
		t.Fatalf("created log scan: %+v", got)
	}
	// The old poisoned handle is closed by Cleanup; it shares the inode but
	// never writes again, so the superseding log is unaffected.
}

// opRecorder wraps a File and records the order of Sync and Close calls.
type opRecorder struct {
	File
	ops *[]string
}

func (r opRecorder) Sync() error  { *r.ops = append(*r.ops, "sync"); return r.File.Sync() }
func (r opRecorder) Close() error { *r.ops = append(*r.ops, "close"); return r.File.Close() }

// Close must sync before closing so clean-shutdown durability never depends
// on kernel writeback timing.
func TestCloseSyncsBeforeClose(t *testing.T) {
	var ops []string
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := OpenFile(path, func(p string) (File, error) {
		f, err := osOpen(p)
		if err != nil {
			return nil, err
		}
		return opRecorder{File: f, ops: &ops}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0] != "sync" || ops[1] != "close" {
		t.Fatalf("Close op order %v, want [sync close]", ops)
	}
}

// A slow disk must not corrupt anything — delays stack with faults but the
// committed prefix semantics are unchanged.
func TestAppendUnderSlowIO(t *testing.T) {
	l, inj, path := openFaulty(t)
	inj.SetDelay(100 * time.Microsecond)
	for _, b := range testBatches(4) {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	inj.Clear()
	if got := scanFile(t, path); len(got) != 4 {
		t.Fatalf("scan under slow I/O: %d batches", len(got))
	}
}
