package shard

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rangecube/internal/ndarray"
	"rangecube/internal/wal"
)

// frameSeeds builds, for d = 1…4, a valid sealed request and the valid sealed
// answer to it, stamped with seq 10·d.
func frameSeeds(t testing.TB) (seeds [][]byte) {
	for d := 1; d <= 4; d++ {
		items := make([]Item, 3)
		for k := range items {
			r := make(ndarray.Region, d)
			for j := range r {
				r[j] = ndarray.Range{Lo: k + j, Hi: 2*k + j + 3}
			}
			items[k] = Item{Op: Op(k), Local: r}
		}
		req, err := wal.SealRecord(AppendQueries(make([]byte, wal.FrameSize), items))
		if err != nil {
			t.Fatal(err)
		}
		for k := range items {
			items[k].Value = int64(-7 * (k + d))
			items[k].Cost.Aux = int64(3 * k)
			if items[k].Op != OpSum && k+d != 3 { // one extreme over no cell
				items[k].At = make([]int, d)
				items[k].At[d-1] = k + 1
			}
		}
		ans, err := wal.SealRecord(AppendAnswers(make([]byte, wal.FrameSize), uint64(10*d), items))
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, req, ans)
	}
	return seeds
}

// reseal rewrites the frame around a payload mutated in place, so the
// mutation reaches the decoder instead of dying at the checksum.
func reseal(t testing.TB, rec []byte, mutate func(payload []byte) []byte) []byte {
	out, err := wal.SealRecord(append(make([]byte, wal.FrameSize), mutate(bytes.Clone(rec[wal.FrameSize:]))...))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzScatterFrame holds both decoders to their contract on arbitrary bytes:
// never panic, never size an allocation from an unchecked count, and every
// frame that decodes re-encodes to the bytes it was decoded from.
func FuzzScatterFrame(f *testing.F) {
	seeds := frameSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	req := seeds[2]                                                                       // d = 2
	f.Add(req[:len(req)-5])                                                               // truncated
	f.Add(append(bytes.Clone(req[:len(req)-1]), req[len(req)-1]^0x40))                    // bad CRC
	f.Add(reseal(f, req, func(p []byte) []byte { p[0] = 9; return p }))                   // unknown version
	f.Add(reseal(f, req, func(p []byte) []byte { p[1] = 3; return p }))                   // dims mismatch
	f.Add(reseal(f, req, func(p []byte) []byte { p[frameHeader] = 7; return p }))         // unknown op
	f.Add(reseal(f, req, func(p []byte) []byte { p[frameHeader+1] = 200; return p }))     // lo > hi + 1
	f.Add(reseal(f, req, func(p []byte) []byte { p[frameHeader+8] = 0x7f; return p }))    // hi ≥ any shape
	f.Add(reseal(f, req, func(p []byte) []byte { p[4] = 0xff; return p }))                // count larger than the body
	f.Add(reseal(f, seeds[3], func(p []byte) []byte { p[answerHeader] = 1; return p }))   // refused item
	f.Add(reseal(f, seeds[3], func(p []byte) []byte { return p[:len(p)-3] }))             // answer cut short
	f.Add(reseal(f, seeds[3], func(p []byte) []byte { p[answerHeader+1] = 2; return p })) // bad found flag
	f.Add(reseal(f, req, func(p []byte) []byte { p[0] = 1; return p }))                   // version 1, no seq in its answer

	f.Fuzz(func(t *testing.T, rec []byte) {
		payload, err := wal.OpenRecord(rec)
		if err != nil {
			return
		}
		const limit = 64
		if items, err := DecodeQueries(payload, limit); err == nil {
			if len(items) > limit || len(items)*querySize(len(items[0].Local)) != len(payload)-frameHeader {
				t.Fatalf("decoded %d items from a %d-byte payload", len(items), len(payload))
			}
			for k, it := range items {
				for j, rng := range it.Local {
					if rng.Lo < 0 || rng.Hi < rng.Lo-1 {
						t.Fatalf("item %d dimension %d decoded to %v", k, j, rng)
					}
				}
			}
			if again := AppendQueries(nil, items); !bytes.Equal(again, payload) {
				t.Fatalf("request re-encodes to % x, was % x", again, payload)
			}
		}
		// An answer is decoded into the queries it answers, so the decoder
		// never sizes anything from the frame; give it what its header claims,
		// bounded as the request decoder bounds a request.
		if len(payload) < frameHeader {
			return
		}
		dims, n := int(payload[1]), binary.LittleEndian.Uint32(payload[2:])
		if dims < 1 || dims > maxFrameDims || n < 1 || n > limit {
			return
		}
		items := make([]Item, n)
		for k := range items {
			items[k].Local = make(ndarray.Region, dims)
		}
		if err := DecodeAnswers(payload, items); err == nil {
			if again := AppendAnswers(nil, items[0].Seq, items); !bytes.Equal(again, payload) {
				t.Fatalf("answer re-encodes to % x, was % x", again, payload)
			}
		}
	})
}

// TestScatterFrameRoundTrip pins the seeds' meaning outside the fuzzer: a
// request decodes to the items that were sent, an answer fills them, and each
// malformed variant is refused by the decoder it is aimed at.
func TestScatterFrameRoundTrip(t *testing.T) {
	seeds := frameSeeds(t)
	for d := 1; d <= 4; d++ {
		req, ans := seeds[2*(d-1)][wal.FrameSize:], seeds[2*(d-1)+1][wal.FrameSize:]
		items, err := DecodeQueries(req, 3)
		if err != nil || len(items) != 3 {
			t.Fatalf("d=%d: request decoded to %d items, %v", d, len(items), err)
		}
		for k, it := range items {
			if it.Op != Op(k) || len(it.Local) != d || it.Local[d-1] != (ndarray.Range{Lo: k + d - 1, Hi: 2*k + d + 2}) {
				t.Fatalf("d=%d: item %d decoded to %+v", d, k, it)
			}
		}
		if _, err := DecodeQueries(req, 2); err == nil {
			t.Fatalf("d=%d: a 3-item frame passed a 2-item limit", d)
		}
		if err := DecodeAnswers(ans, items); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for k, it := range items {
			wantAt := it.Op != OpSum && k+d != 3
			if it.Seq != uint64(10*d) || it.Value != int64(-7*(k+d)) || it.Lo != it.Value || it.Hi != it.Value || it.Cost.Total() != int64(3*k) ||
				(it.At != nil) != wantAt || (wantAt && it.At[d-1] != k+1) {
				t.Fatalf("d=%d: answer %d decoded to %+v", d, k, it)
			}
		}
		if err := DecodeAnswers(ans, items[:2]); err == nil {
			t.Fatalf("d=%d: three answers decoded into two queries", d)
		}
	}
	req, ans := seeds[2][wal.FrameSize:], seeds[3][wal.FrameSize:]
	for name, p := range map[string][]byte{
		"unknown version": append([]byte{9}, req[1:]...),
		"version 1":       append([]byte{1}, req[1:]...),
		"dims mismatch":   append([]byte{frameVersion, 3}, req[2:]...),
		"count over body": append(append(bytes.Clone(req[:2]), 0, 1, 0, 0), req[frameHeader:]...),
		"unknown op":      append(append(bytes.Clone(req[:frameHeader]), 7), req[frameHeader+1:]...),
		"lo > hi + 1":     append(append(bytes.Clone(req[:frameHeader+1]), 200), req[frameHeader+2:]...),
		"truncated":       req[:len(req)-5],
	} {
		if _, err := DecodeQueries(p, 1024); err == nil {
			t.Errorf("request decoder accepted a frame with %s", name)
		}
	}
	items, _ := DecodeQueries(req, 3)
	for name, p := range map[string][]byte{
		"refused item":    append(append(bytes.Clone(ans[:answerHeader]), 1), ans[answerHeader+1:]...),
		"bad found flag":  append(append(bytes.Clone(ans[:answerHeader+1]), 2), ans[answerHeader+2:]...),
		"truncated":       ans[:len(ans)-3],
		"trailing bytes":  append(bytes.Clone(ans), 0),
		"unknown version": append([]byte{9}, ans[1:]...),
		"no seq":          ans[:frameHeader+3],
		"version 1":       append(append([]byte{1}, ans[1:frameHeader]...), ans[answerHeader:]...),
	} {
		if err := DecodeAnswers(p, items); err == nil {
			t.Errorf("answer decoder accepted a frame with %s", name)
		}
	}
}
