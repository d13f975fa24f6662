// Package color implements greedy graph multicoloring for the Multicolor
// Gauss-Seidel method (§2.1 of the paper). Colors are assigned greedily in
// a breadth-first traversal order, the strategy the paper uses ("we assign
// colors using a breadth-first traversal"); rows in one color class form an
// independent set and can be relaxed in a single parallel step.
package color

import "southwell/internal/sparse"

// Coloring is a graph coloring: Color[i] in [0, NumColors).
type Coloring struct {
	Color     []int
	NumColors int
}

// Greedy colors the adjacency graph of a (off-diagonal structure) greedily
// in BFS order starting from vertex 0 (and continuing component by
// component). Every vertex gets the smallest color not used by an already
// colored neighbor.
func Greedy(a *sparse.CSR) Coloring {
	n := a.N
	col := make([]int, n)
	for i := range col {
		col[i] = -1
	}
	forbidden := make([]int, 0, 64) // stamp array: forbidden[c] == vertex+1
	numColors := 0

	queue := make([]int, 0, n)
	visited := make([]bool, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			cols, _ := a.Row(v)
			// Find the smallest color unused among neighbors.
			for len(forbidden) < numColors+2 {
				forbidden = append(forbidden, 0)
			}
			for _, u := range cols {
				if int(u) == v {
					continue
				}
				if c := col[u]; c >= 0 {
					if c >= len(forbidden) {
						grow := make([]int, c+1-len(forbidden))
						forbidden = append(forbidden, grow...)
					}
					forbidden[c] = v + 1
				}
				if !visited[u] {
					visited[u] = true
					queue = append(queue, int(u))
				}
			}
			c := 0
			for c < len(forbidden) && forbidden[c] == v+1 {
				c++
			}
			col[v] = c
			if c+1 > numColors {
				numColors = c + 1
			}
		}
	}
	return Coloring{Color: col, NumColors: numColors}
}

// Classes returns the vertices of each color class, in ascending vertex
// order within a class.
func (c Coloring) Classes() [][]int {
	classes := make([][]int, c.NumColors)
	for v, cv := range c.Color {
		classes[cv] = append(classes[cv], v)
	}
	return classes
}
