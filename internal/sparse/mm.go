package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// mmCapHint caps the entry capacity ReadMatrixMarket reserves from a
// declared count: a header is not evidence that the entries exist, so past
// this append grows the storage with the entries actually read.
const mmCapHint = 1 << 16

// ReadMatrixMarket parses a Matrix Market "coordinate real" matrix from r.
// Both "general" and "symmetric" symmetry fields are supported; symmetric
// files store the lower triangle and are expanded on read. Pattern files are
// read with all values set to 1. Only square matrices are accepted, since
// every consumer in this repository solves Ax=b.
//
// Malformed input is an error, never a panic: declared sizes are checked
// against the 32-bit index range before anything is allocated, storage
// grows with the entries actually read rather than with the declared
// count, and the matrix returned has passed Validate (so a NaN or Inf
// entry, or duplicates that sum to one, is an error).
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	field, symm := header[3], header[4]
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", field)
	}
	if symm != "general" && symm != "symmetric" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", symm)
	}

	// Skip comments, find size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %v", line, err)
		}
		break
	}
	if rows != cols {
		return nil, fmt.Errorf("sparse: non-square MatrixMarket matrix %dx%d", rows, cols)
	}
	if err := checkSize(rows, nnz); err != nil {
		return nil, err
	}

	capHint := min(nnz, mmCapHint)
	if symm == "symmetric" {
		capHint *= 2
	}
	coo := NewCOO(rows, capHint)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: bad MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		i--
		j--
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d,%d) out of range", i+1, j+1)
		}
		coo.Add(i, j, v)
		if symm == "symmetric" && i != j {
			coo.Add(j, i, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket: %v", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: MatrixMarket declared %d entries, found %d", nnz, read)
	}
	if err := checkSize(rows, coo.NNZ()); err != nil { // a symmetric file's expansion
		return nil, err
	}
	a := coo.ToCSR()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
