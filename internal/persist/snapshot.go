package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rangecube/internal/ndarray"
)

// KindSnapshot tags a serving snapshot: the cube's cell values at a known
// point in the update sequence. Together with a write-ahead log of the
// batches applied after it, a snapshot lets a server recover its exact
// pre-crash state: restore the cells, rebuild the derived structures (all
// O(N) passes), replay the log's suffix.
const KindSnapshot Kind = 4

// WriteSnapshot serializes a serving snapshot: seq is the sequence number
// of the last update batch folded into cells. It streams through one chunk
// of memory, whatever the size of cells.
func WriteSnapshot(w io.Writer, seq uint64, cells *ndarray.Array[int64]) error {
	e := newEncoder(w, 0, KindSnapshot)
	e.u64(seq)
	e.array(cells, cells.Bounds())
	_, err := e.finish()
	return err
}

// EncodeSnapshot returns the snapshot at seq of region r of a, in one
// allocation of its exact size: the bytes WriteSnapshot writes for a copy of
// that region, encoded straight from a's runs without the copy.
func EncodeSnapshot(seq uint64, a *ndarray.Array[int64], r ndarray.Region) []byte {
	e := newEncoder(nil, 4+2+1+8+4+8*len(r)+8*r.Volume()+4, KindSnapshot)
	e.u64(seq)
	e.array(a, r)
	body, _ := e.finish()
	return body
}

// ReadSnapshot deserializes a serving snapshot and verifies its checksum.
// Given into, it decodes the cells straight into into[0], whose shape the
// snapshot's must match, and returns it; a read that fails may have written
// part of it.
func ReadSnapshot(r io.Reader, into ...*ndarray.Array[int64]) (seq uint64, cells *ndarray.Array[int64], err error) {
	return ReadSnapshotSized(r, 0, into...)
}

// ReadSnapshotSized is ReadSnapshot of an input of size bytes (≤ 0: unknown).
// The cells take one allocation, and a header that claims more cells than
// the input holds fails before any.
func ReadSnapshotSized(r io.Reader, size int64, into ...*ndarray.Array[int64]) (seq uint64, cells *ndarray.Array[int64], err error) {
	d := open(r, size, KindSnapshot)
	seq = d.u64()
	if len(into) > 0 {
		cells = into[0]
	}
	cells = d.array(cells)
	if err := d.close(); err != nil {
		return 0, nil, err
	}
	return seq, cells, nil
}

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the previous content or the new content at path, never a torn mix: the
// bytes go to a temporary file in the same directory, are fsynced, and the
// temporary file is renamed over path; the directory is then fsynced so the
// rename itself is durable. write receives the temporary file's writer.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// fsync the directory so the rename survives a crash. Failure here is
	// reported: the data is safe on disk but the directory entry may not be.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
