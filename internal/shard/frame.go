package shard

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// The scatter frame: Engine.Answer serialised, the one read RPC between a
// leader and a shard process (POST /shard/query). Each direction is one
// wal.SealRecord record (u32 length, u32 CRC32C) around a little-endian
// payload; a payload is a header and count items, and an answer's header is
// followed by the seq of the state that answered every item:
//
//	header:  u8 version, u8 dims, u32 count
//	query:   u8 op, dims × (i32 lo, i32 hi)          shard-local, fixed size
//	seq:     u64                                     answers only
//	answer:  u8 status, u8 found, i64 value, i64 accesses, found × dims × i32 at
//
// A sum's exact value is its own §11 bounds, so none travel. A peer that
// reads a version it does not speak refuses the frame, which the leader
// treats like any other 4xx: a permanent error, no hedge, no down-marking.
const (
	frameVersion = 2
	frameHeader  = 6
	answerHeader = frameHeader + 8
	maxFrameDims = 64
	answerFixed  = 1 + 1 + 8 + 8
)

var errFrame = errors.New("shard: malformed scatter frame")

func querySize(dims int) int { return 1 + 8*dims }

// AppendQueries appends the request payload for items, which are non-empty
// and of one dimensionality.
func AppendQueries(dst []byte, items []Item) []byte {
	dst = append(dst, frameVersion, byte(len(items[0].Local)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	for k := range items {
		op := items[k].Op
		if op == OpSumFull {
			op = OpSum
		}
		dst = append(dst, byte(op))
		for _, rng := range items[k].Local {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(rng.Lo)))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(rng.Hi)))
		}
	}
	return dst
}

// header checks a payload's version, dimensionality and count (at most max)
// and returns them with the bytes after the header.
func header(p []byte, max int) (dims, n int, body []byte, err error) {
	if len(p) < frameHeader {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", errFrame, len(p))
	}
	if p[0] != frameVersion {
		return 0, 0, nil, fmt.Errorf("%w: version %d, this build speaks %d", errFrame, p[0], frameVersion)
	}
	dims, count := int(p[1]), binary.LittleEndian.Uint32(p[2:])
	if dims < 1 || dims > maxFrameDims || count < 1 || uint64(count) > uint64(max) {
		return 0, 0, nil, fmt.Errorf("%w: %d items of %d dims (at most %d items)", errFrame, count, dims, max)
	}
	return dims, int(count), p[frameHeader:], nil
}

// DecodeQueries parses a request payload of at most max items into their Op
// and Local. The body must be exactly as long as the count implies — checked
// before anything is allocated from the count — with a known op per item and
// 0 ≤ lo ≤ hi+1 per range; whether a range fits the slab is the caller's
// check, made in the epoch it evaluates in.
func DecodeQueries(p []byte, max int) ([]Item, error) {
	dims, n, b, err := header(p, max)
	if err != nil {
		return nil, err
	}
	if len(b) != n*querySize(dims) {
		return nil, fmt.Errorf("%w: %d body bytes for %d items of %d dims", errFrame, len(b), n, dims)
	}
	items := make([]Item, n)
	ranges := make(ndarray.Region, n*dims) // one backing array for every Local
	for k := range items {
		it := &items[k]
		if it.Op = Op(b[0]); it.Op > OpMin {
			return nil, fmt.Errorf("%w: item %d has unknown op %d", errFrame, k, b[0])
		}
		b = b[1:]
		it.Local = ranges[k*dims : (k+1)*dims : (k+1)*dims]
		for j := range it.Local {
			lo, hi := int(int32(binary.LittleEndian.Uint32(b))), int(int32(binary.LittleEndian.Uint32(b[4:])))
			if lo < 0 || hi < lo-1 {
				return nil, fmt.Errorf("%w: item %d range %d..%d in dimension %d", errFrame, k, lo, hi, j)
			}
			it.Local[j], b = ndarray.Range{Lo: lo, Hi: hi}, b[8:]
		}
	}
	return items, nil
}

// AppendAnswers appends the response payload for items answered at seq.
func AppendAnswers(dst []byte, seq uint64, items []Item) []byte {
	dst = append(dst, frameVersion, byte(len(items[0].Local)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	for k := range items {
		it := &items[k]
		status, found := byte(0), byte(0)
		if it.Err != nil {
			status = 1
		} else if it.At != nil {
			found = 1
		}
		dst = append(dst, status, found)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(it.Value))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(it.Cost.Total()))
		if found == 1 {
			for _, x := range it.At {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(x)))
			}
		}
	}
	return dst
}

// DecodeAnswers fills items, the queries that were sent, from a response
// payload: the shard's seq, the value (its own bounds), an extreme's cell,
// and the shard's access count as auxiliary cost — the leader touched none of
// those cells itself, but the work was done on the query's behalf. Nothing is
// sized from the payload: count and dims must be the items' own, and an item
// the shard refused fails the whole decode.
func DecodeAnswers(p []byte, items []Item) error {
	dims, n, b, err := header(p, len(items))
	if err != nil {
		return err
	}
	if n != len(items) || dims != len(items[0].Local) {
		return fmt.Errorf("%w: %d answers of %d dims to %d queries of %d", errFrame, n, dims, len(items), len(items[0].Local))
	}
	if len(b) < answerHeader-frameHeader {
		return fmt.Errorf("%w: no seq after the header", errFrame)
	}
	seq, b := binary.LittleEndian.Uint64(b), b[answerHeader-frameHeader:]
	for k := range items {
		it := &items[k]
		if len(b) < answerFixed || b[1] > 1 || len(b) < answerFixed+int(b[1])*4*dims {
			return fmt.Errorf("%w: answer %d truncated or malformed", errFrame, k)
		}
		if b[0] != 0 {
			return fmt.Errorf("shard: item %d (%s over %v) was refused by the shard", k, it.Op, it.Local)
		}
		found, accesses := b[1] == 1, int64(binary.LittleEndian.Uint64(b[10:]))
		if accesses < 0 {
			return fmt.Errorf("%w: answer %d counts %d accesses", errFrame, k, accesses)
		}
		it.Value, it.Seq = int64(binary.LittleEndian.Uint64(b[2:])), seq
		it.Lo, it.Hi, it.At, it.Cost = it.Value, it.Value, nil, metrics.Counter{Aux: accesses}
		b = b[answerFixed:]
		if found {
			it.At = make([]int, dims)
			for j := range it.At {
				it.At[j], b = int(int32(binary.LittleEndian.Uint32(b))), b[4:]
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d bytes after the last answer", errFrame, len(b))
	}
	return nil
}
