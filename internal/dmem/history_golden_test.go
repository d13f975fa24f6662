package dmem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"southwell/internal/problem"
	"southwell/internal/rma"
	"southwell/internal/sparse"
)

// historyHash hashes every field of every step record of res, floats by
// their bits, then its runtime statistics, its watchdog verdict and its
// solution X, and returns the first 8 bytes in hex.
func historyHash(res *Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.History)))
	for _, s := range res.History {
		put(uint64(s.Step))
		put(math.Float64bits(s.ResNorm))
		put(uint64(s.RelaxedRanks))
		put(uint64(s.Relaxations))
		put(uint64(s.SolveMsgs))
		put(uint64(s.ResMsgs))
		put(math.Float64bits(s.SimTime))
	}
	st := res.Stats
	put(math.Float64bits(st.SimTime))
	for _, v := range []int64{st.Phases, st.SolveMsgs, st.ResMsgs, st.SolveBytes, st.ResBytes, st.Delivered, st.DelayedMsgs} {
		put(uint64(v))
	}
	dead := uint64(0)
	if res.Deadlocked {
		dead = 1
	}
	put(dead)
	put(uint64(res.DeadlockStep))
	for _, v := range res.X {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenBlockMethods is the column order of historyGolden: the four block
// methods and Distributed Southwell's two ablations.
var goldenBlockMethods = []struct {
	name string
	run  method
}{
	{"BJ", BlockJacobi},
	{"PS", ParallelSouthwell},
	{"DS", DistributedSouthwell},
	{"pb16", Piggyback2016},
	{"DS-noghost", func(s *Setup, b, x []float64, cfg Config) *Result {
		return DistributedSouthwellOpt(s, b, x, cfg, DistSWOptions{NoGhostEstimate: true})
	}},
	{"DS-slack", func(s *Setup, b, x []float64, cfg Config) *Result {
		return DistributedSouthwellOpt(s, b, x, cfg, DistSWOptions{UpdateSlack: 0.5})
	}},
}

// historyGolden pins every block method's history, statistics and solution
// bit for bit: one row per system, local solver and network, one hash per
// method in goldenBlockMethods' order. The hashes were taken on the method
// files that walked their inboxes themselves, before one reader replaced
// the three walks.
var historyGolden = map[string][6]string{
	"poisson16/gs/perfect":     {"cf0b46f8fa244f01", "0a5bdebe5a9e72b3", "77fd5277c078fb08", "0195519af855cdbc", "c04388a71e0d5e58", "c37b36bb50c595a2"},
	"poisson16/gs/delay":       {"48a489f40cbe6642", "2a3f6b85d8a17c2b", "ca27a36e9b4756e3", "78a8dc446312f056", "acdda11dd41b7c29", "d4db444a4425d69f"},
	"poisson16/gs/heavy":       {"cecceccd84ad522d", "3c7fb989bcc13d9b", "e330dcb7373779da", "a7ce07decf691f0c", "1342377022b1b703", "3026d9e9dd10e096"},
	"poisson16/direct/perfect": {"a66d5c3a75311ac1", "2877aad53f952fca", "1250373c97eef4b0", "2bc48cd97c724265", "53b0546374be5a8e", "8b3b4061d6c7268e"},
	"poisson16/direct/delay":   {"372deb303814767b", "752b78e451482f97", "45fd26e1e9b0c043", "bb8940444a6dde09", "1f94d0d7d4640942", "6b8fc1b493281490"},
	"poisson16/direct/heavy":   {"748107d091931842", "caa133cfef3d58fe", "0f8f1b67696d7ae9", "c0c6dcc515f3ac7e", "edbfed9dee8db575", "2d37802af6d78c67"},
	"fem12/gs/perfect":         {"f233ad3d1e132182", "0893cd7cb3b1bc67", "a906245b5dc33d2f", "6e3effe359c8fe0d", "c2a5f686ce9041ce", "8cfff44982e411cf"},
	"fem12/gs/delay":           {"4465936d2bd9a2f0", "8899c1aa1f201947", "385fd61045ffcf17", "dc7833edf5b3646c", "0c8f864d08c93316", "b2ff6566ed2eaf24"},
	"fem12/gs/heavy":           {"74440cb89fc5bcf6", "7349989314daa00a", "7f4683a23fe99c79", "4842161520593da7", "f52a3836b38e4f94", "ae4a9d0af8a4ee66"},
	"fem12/direct/perfect":     {"632e7d267d443222", "ea7547d6c0b6c5dd", "993ab91f9eb9b273", "c924e60de50e3a93", "7755841343806e32", "2cd78d6bb4ac611f"},
	"fem12/direct/delay":       {"14963c0ed4e9be80", "388619f11268f970", "1858c0468c437b4d", "6fb1b31a72d3db73", "dc55886efafa880b", "77a5f540897626ac"},
	"fem12/direct/heavy":       {"314cec62e9284602", "a4685618b13a9c35", "facb335ebea68b54", "31c454938931a69f", "b759e0b02c010d16", "e7b18c8e91cfccfd"},
}

// TestHistoryHashesGolden runs the block methods on a Poisson grid and a
// distorted FEM mesh, with each local solver, on a perfect network and
// under two delay plans, and holds each run to its hash. The delay plans are
// what reach the stale-estimate guards: a held body that lands after a
// fresher one from the same sender must still add its deltas and must not
// overwrite the estimates.
func TestHistoryHashesGolden(t *testing.T) {
	systems := []struct {
		name  string
		a     func() *sparse.CSR
		ranks int
	}{
		{"poisson16", func() *sparse.CSR { return problem.Poisson2D(16, 16) }, 8},
		{"fem12", func() *sparse.CSR { return problem.FEM2D(12, 0.3, 5) }, 6},
	}
	networks := []struct {
		name string
		plan *rma.FaultPlan
	}{
		{"perfect", nil},
		{"delay", rma.DelayPlan(5, 0.3, 3)},
		{"heavy", rma.DelayPlan(9, 0.5, 4)},
	}
	for _, sys := range systems {
		for _, local := range []LocalSolver{LocalGS, LocalDirect} {
			s, b, x := buildCaseLocal(t, sys.a(), sys.ranks, 3, local)
			for _, nw := range networks {
				key := sys.name + "/" + local.String() + "/" + nw.name
				var got [6]string
				for m, meth := range goldenBlockMethods {
					got[m] = historyHash(meth.run(s, b, x, Config{Steps: 40, Faults: nw.plan}))
				}
				if want := historyGolden[key]; got != want {
					t.Errorf("%s: hashes\n got %q\nwant %q", key, got, want)
				}
			}
		}
	}
}
