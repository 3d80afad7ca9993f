package persist

import (
	"encoding/binary"
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
// of the last update batch folded into cells.
func WriteSnapshot(w io.Writer, seq uint64, cells *ndarray.Array[int64]) error {
	cw := &crcWriter{w: w}
	if err := writeHeader(cw, KindSnapshot); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, seq); err != nil {
		return err
	}
	if err := writeArray(cw, cells); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cw.sum)
}

// ReadSnapshot deserializes a serving snapshot and verifies its checksum.
// Given into, it decodes the cells straight into into[0], whose shape the
// snapshot's must match, and returns it; a read that fails may have written
// part of it.
func ReadSnapshot(r io.Reader, into ...*ndarray.Array[int64]) (seq uint64, cells *ndarray.Array[int64], err error) {
	cr := &crcReader{r: r}
	ver, err := readHeader(cr, KindSnapshot)
	if err != nil {
		return 0, nil, err
	}
	if err := binary.Read(cr, binary.LittleEndian, &seq); err != nil {
		return 0, nil, err
	}
	if len(into) > 0 {
		cells = into[0]
	}
	cells, err = readArray(cr, cells)
	if err != nil {
		return 0, nil, err
	}
	if ver >= version {
		if err := cr.verify(); err != nil {
			return 0, nil, err
		}
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
