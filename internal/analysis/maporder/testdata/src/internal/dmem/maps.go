// Fixture: map iteration shapes mirroring internal/dmem/layout.go and the
// message path, in a package inside the maporder scope.
package dmem

import (
	"sort"

	"internal/rma"
)

// collectThenSort mirrors layout.go's ext-row indexing: a bare key-collect
// loop immediately sorted is the legal idiom.
func collectThenSort(extSet map[int]bool) []int {
	ext := make([]int, 0, len(extSet))
	for g := range extSet {
		ext = append(ext, g)
	}
	sort.Ints(ext)
	return ext
}

// collectNoSort appends map keys but never sorts: the layout would depend
// on the runtime's hash seed.
func collectNoSort(extSet map[int]bool) []int {
	var ext []int
	for g := range extSet { // want `order-sensitive iteration over map extSet \(append to ext\)`
		ext = append(ext, g)
	}
	return ext
}

// accumulate sums float values in map order: non-associative, so the sum's
// low bits depend on iteration order.
func accumulate(w map[int]float64) float64 {
	total := 0.0
	for _, v := range w { // want `order-sensitive iteration over map w \(floating-point accumulation into total\)`
		total += v
	}
	return total
}

// sendInMapOrder stages messages in map order: the delivery schedule (and
// with it the fault layer's PRNG stream) would differ run to run.
func sendInMapOrder(w *rma.World, nbrs map[int]int) {
	for q := range nbrs { // want `order-sensitive iteration over map nbrs \(message staged through World\.Put\)`
		w.Put(0, q, 0, 8, nil)
	}
}

// channelSend publishes in map order.
func channelSend(ch chan int, set map[int]bool) {
	for k := range set { // want `order-sensitive iteration over map set \(channel send\)`
		ch <- k
	}
}

// indexedWrite fills a per-rank table from a map: writes to keyed slots
// commute, so map order cannot leak.
func indexedWrite(slow []float64, stragglers map[int]float64) {
	for p, f := range stragglers {
		if p >= 0 && p < len(slow) {
			slow[p] = f
		}
	}
}

// localCollect appends into a slice declared inside the loop body:
// iteration-local, nothing leaks.
func localCollect(set map[int][]int) int {
	n := 0
	for _, vs := range set {
		pair := []int{}
		pair = append(pair, vs...)
		n += len(pair)
	}
	return n
}

// sliceRange is not a map iteration at all.
func sliceRange(xs []float64) float64 {
	total := 0.0
	for _, v := range xs {
		total += v
	}
	return total
}
