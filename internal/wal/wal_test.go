package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// AppendRecord frames and writes one payload: length, CRC32C, bytes. It
// performs a single Write so a short write leaves at most one torn record
// at the tail, which recovery discards.
func AppendRecord(w io.Writer, payload []byte) error {
	rec, err := SealRecord(append(make([]byte, frameSize, frameSize+len(payload)), payload...))
	if err != nil {
		return err
	}
	n, err := w.Write(rec)
	if err == nil && n < len(rec) {
		err = io.ErrShortWrite
	}
	return err
}

// LastSeq returns the highest sequence number in the log (0 if empty).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

func testBatches(n int) []Batch {
	out := make([]Batch, n)
	for i := range out {
		out[i] = Batch{
			Seq: uint64(i + 1),
			Updates: []Update{
				{Coords: []int{i, 2 * i, 3}, Delta: int64(100 + i)},
				{Coords: []int{0, 1, 2}, Delta: int64(-7 * i)},
			},
		}
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	// A batch with no updates is what a shard whose slab a commit misses is
	// sent.
	for _, b := range append(testBatches(5), Batch{Seq: 9}) {
		p, err := EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("round trip: %+v != %+v", got, b)
		}
	}
}

func TestEncodeBatchRejectsMalformed(t *testing.T) {
	cases := map[string]Batch{
		"no coords":  {Seq: 1, Updates: []Update{{Delta: 1}}},
		"mixed dims": {Seq: 1, Updates: []Update{{Coords: []int{1, 2}}, {Coords: []int{1}}}},
		"wide coord": {Seq: 1, Updates: []Update{{Coords: []int{1 << 40}}}},
		"many dims":  {Seq: 1, Updates: []Update{{Coords: make([]int, 100)}}},
	}
	for name, b := range cases {
		if _, err := EncodeBatch(b); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

func TestLogAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.wal")
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log recovered %d batches", len(got))
	}
	want := testBatches(8)
	for _, b := range want {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(Batch{Seq: 3, Updates: want[0].Updates}); err == nil {
		t.Fatal("non-monotonic sequence accepted")
	}
	if l.LastSeq() != 8 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen recovered %+v, want %+v", got, want)
	}
	// And the reopened log keeps accepting appends after the recovered seq.
	if err := l2.Append(Batch{Seq: 9, Updates: want[0].Updates}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedTailRecovery cuts the log at every byte position and checks
// the recovery invariant: exactly the batches whose records fit entirely
// within the cut survive, and reopening truncates the torn tail away.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "updates.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testBatches(4)
	ends := []int64{headerSize} // committed length after each batch
	for _, b := range want {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[len(ends)-1] {
		t.Fatalf("file is %d bytes, committed %d", len(full), ends[len(ends)-1])
	}

	for cut := headerSize; cut <= len(full); cut++ {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The committed prefix is the batches whose end ≤ cut.
		committed := 0
		for _, e := range ends[1:] {
			if e <= int64(cut) {
				committed++
			}
		}
		l2, got, err := Open(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != committed {
			t.Fatalf("cut %d: recovered %d batches, want %d", cut, len(got), committed)
		}
		if committed > 0 && !reflect.DeepEqual(got, want[:committed]) {
			t.Fatalf("cut %d: recovered wrong batches", cut)
		}
		if l2.Size() != ends[committed] {
			t.Fatalf("cut %d: size %d, want truncation to %d", cut, l2.Size(), ends[committed])
		}
		info, _ := os.Stat(p)
		if info.Size() != ends[committed] {
			t.Fatalf("cut %d: torn tail not erased (%d bytes on disk)", cut, info.Size())
		}
		l2.Close()
	}
}

// TestCorruptRecordEndsScan flips one payload byte of the middle record:
// everything before it is recovered, it and everything after are dropped.
func TestCorruptRecordEndsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testBatches(3)
	var ends []int64
	for _, b := range want {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[ends[0]+frameSize+2] ^= 0x10 // inside record 2's payload
	got, valid, err := Scan(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want[0]) {
		t.Fatalf("recovered %+v, want only batch 1", got)
	}
	if valid != ends[0] {
		t.Fatalf("valid = %d, want %d", valid, ends[0])
	}
}

func TestResetCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, b := range testBatches(5) {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != headerSize {
		t.Fatalf("size after reset = %d", l.Size())
	}
	// Sequence numbers keep climbing across the reset.
	if err := l.Append(Batch{Seq: 2, Updates: []Update{{Coords: []int{0}, Delta: 1}}}); err == nil {
		t.Fatal("reset forgot the sequence floor")
	}
	if err := l.Append(Batch{Seq: 6, Updates: []Update{{Coords: []int{0}, Delta: 1}}}); err != nil {
		t.Fatal(err)
	}
	got, valid, err := Scan(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("after reset+append recovered %+v", got)
	}
	if valid != l.Size() {
		t.Fatalf("valid %d != size %d", valid, l.Size())
	}
}

func mustOpen(t *testing.T, path string) *bytes.Reader {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func TestScanRejectsNonWAL(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("R"), []byte("not a wal file")} {
		if _, _, err := Scan(bytes.NewReader(data)); err == nil {
			t.Errorf("%q: accepted", data)
		}
	}
}

// TestCoalesce: one update per cell, in first-appearance order across the
// groups, with the deltas of a repeated cell added and a cell netting zero
// dropped; a lone group that is already coalesced comes back as it is, and
// one past the 32 cells checked without allocating is coalesced too.
func TestCoalesce(t *testing.T) {
	shape := []int{4, 5}
	at := func(x, y int) []int { return []int{x, y} }
	got := Coalesce(shape,
		[]Update{{at(1, 2), 5}, {at(3, 4), 7}, {at(1, 2), -2}},
		[]Update{{at(0, 0), 0}, {at(3, 4), -7}, {at(2, 0), 1}, {at(1, 2), 4}})
	want := []Update{{at(1, 2), 7}, {at(2, 0), 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Coalesce = %v, want %v", got, want)
	}
	lone := []Update{{at(3, 1), 2}, {at(0, 4), -1}}
	if got := Coalesce(shape, lone); &got[0] != &lone[0] || len(got) != 2 {
		t.Fatalf("a coalesced group came back as %v, not itself", got)
	}
	var many []Update
	for i := range 20 {
		many = append(many, Update{at(i%4, i%5), 1}, Update{at(i%4, i%5), 1})
	}
	got = Coalesce(shape, many)
	if len(got) != 20 {
		t.Fatalf("40 updates of 20 cells coalesced to %d", len(got))
	}
	for i, u := range got {
		if !reflect.DeepEqual(u, Update{at(i%4, i%5), 2}) {
			t.Fatalf("cell %d coalesced to %v, want %v +2", i, u, at(i%4, i%5))
		}
	}
}
