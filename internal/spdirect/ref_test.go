package spdirect

// Reference oracles: the numeric loops exactly as they were written before
// the kernels moved their operands into locals (DESIGN.md §10, "Kernel
// form"). They index through the factor on every nonzero, which is slow and
// obviously right; oracle_test.go asserts the production kernels reproduce
// every output bit. Do not "tidy" these — their value is that they are not
// the code under test.

// solveRef is the pre-rewrite (*Factor).SolveWith.
func (f *Factor) solveRef(b, x, y []float64) {
	s := f.sym
	n := s.N
	for k := 0; k < n; k++ {
		y[k] = b[s.Perm[k]]
	}
	for i := 0; i < n; i++ {
		yi := y[i]
		if yi != 0 {
			for p := s.Lp[i]; p < s.Lp[i+1]; p++ {
				y[f.Li[p]] -= f.Lx[p] * yi
			}
		}
	}
	for k := 0; k < n; k++ {
		y[k] /= f.D[k]
	}
	for i := n - 1; i >= 0; i-- {
		yi := y[i]
		for p := s.Lp[i]; p < s.Lp[i+1]; p++ {
			yi -= f.Lx[p] * y[f.Li[p]]
		}
		y[i] = yi
	}
	for k := 0; k < n; k++ {
		x[s.Perm[k]] = y[k]
	}
}

// refactorRef is the pre-rewrite (*Factor).Refactor, minus the val-length
// check and with a bare ok for the pivot failure (the error text is not part
// of the numeric contract).
func (f *Factor) refactorRef(val []float64) (ok bool) {
	s := f.sym
	n := s.N
	y, pat, flag, next := f.yn, f.pattern, f.flag, f.next
	for k := 0; k < n; k++ {
		next[k] = int32(s.Lp[k])
		flag[k] = -1
	}
	for k := 0; k < n; k++ {
		top := n
		flag[k] = int32(k)
		for p := s.bp[k]; p < s.bp[k+1]; p++ {
			i := int(s.bi[p])
			y[i] += val[s.bmap[p]]
			plen := 0
			for ; flag[i] != int32(k); i = s.Parent[i] {
				pat[plen] = int32(i)
				plen++
				flag[i] = int32(k)
			}
			for plen > 0 {
				plen--
				top--
				pat[top] = pat[plen]
			}
		}
		dk := y[k]
		y[k] = 0
		for ; top < n; top++ {
			i := int(pat[top])
			yi := y[i]
			y[i] = 0
			p2 := int(next[i])
			for p := s.Lp[i]; p < p2; p++ {
				y[f.Li[p]] -= f.Lx[p] * yi
			}
			lki := yi / f.D[i]
			dk -= lki * yi
			f.Li[p2] = int32(k)
			f.Lx[p2] = lki
			next[i] = int32(p2 + 1)
		}
		if !(dk > 0) {
			for i := range y {
				y[i] = 0
			}
			return false
		}
		f.D[k] = dk
	}
	return true
}

// Handles for the external test package (which can import dmem for the
// direct64 blocks; this package cannot). AnalyzePerm is Analyze under a
// given ordering, for the tests that compare RCM against the natural one.
var (
	SolveRef    = (*Factor).solveRef
	RefactorRef = (*Factor).refactorRef
	AnalyzePerm = analyze
)
