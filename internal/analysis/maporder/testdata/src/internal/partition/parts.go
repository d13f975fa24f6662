// Fixture: a package under internal/ that never touches the runtime. Part
// ids feed every results table, so a member list built in map order is as
// much a determinism bug here as a message schedule built in map order is
// in internal/dmem.
package partition

import "sort"

// membersUnsorted appends vertices in hash order.
func membersUnsorted(inPart map[int]bool) []int {
	var out []int
	for v := range inPart { // want `order-sensitive iteration over map inPart \(append to out\)`
		out = append(out, v)
	}
	return out
}

// membersSorted is the legal idiom: collect keys, sort, then use.
func membersSorted(inPart map[int]bool) []int {
	out := make([]int, 0, len(inPart))
	for v := range inPart {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
