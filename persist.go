package rangecube

import (
	"io"

	"rangecube/internal/persist"
)

// Persistence: indexes can be built offline (e.g. during the nightly batch
// window the paper's update model assumes, §5) and written to disk, then
// reloaded at server start-up.

// Save serializes the prefix-sum index (its P array; the cube itself is
// not needed, §3.4).
func (s *SumIndex) Save(w io.Writer) error { return persist.WritePrefixSum(w, s.ps) }

// ReadSumIndex deserializes a prefix-sum index written by Save.
func ReadSumIndex(r io.Reader) (*SumIndex, error) {
	ps, err := persist.ReadPrefixSum(r)
	if err != nil {
		return nil, err
	}
	return &SumIndex{ps: ps}, nil
}

// Save serializes the blocked index: cube, packed prefix sums and block
// sizes. It first folds the queued value-to-adds into the packed sums.
func (s *BlockedSumIndex) Save(w io.Writer) error { return persist.WriteBlocked(w, s.bl) }

// ReadBlockedSumIndex deserializes a blocked index written by Save.
func ReadBlockedSumIndex(r io.Reader) (*BlockedSumIndex, error) {
	bl, err := persist.ReadBlocked(r)
	if err != nil {
		return nil, err
	}
	return &BlockedSumIndex{bl: bl}, nil
}

// Save serializes the max (or min) index; the tree levels are derived
// state and are rebuilt on load.
func (m *MaxIndex) Save(w io.Writer) error {
	return persist.WriteMaxTree(w, m.tr, m.tr.IsMin())
}

// ReadMaxIndex deserializes a max or min index written by Save.
func ReadMaxIndex(r io.Reader) (*MaxIndex, error) {
	tr, err := persist.ReadMaxTree(r)
	if err != nil {
		return nil, err
	}
	return &MaxIndex{tr: tr}, nil
}
