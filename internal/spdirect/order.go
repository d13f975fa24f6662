package spdirect

import "slices"

// rcmPerm computes the reverse Cuthill-McKee permutation of the symmetric
// sparsity structure (rowPtr, col): perm[new] = old — the
// envelope-minimizing ordering that suits the PDE subdomain blocks this
// package factors (DESIGN.md §10). Self-loops (diagonal entries) are
// ignored. Disconnected components are ordered one after another, each from
// its own pseudo-peripheral root, lowest unvisited node first — every choice
// breaks ties by node id, so the result is deterministic for a given
// structure.
func rcmPerm(rowPtr, col []int32) []int32 {
	n := len(rowPtr) - 1
	deg, adjPtr, adj := neighborhoods(rowPtr, col)
	perm := make([]int32, 0, n)
	visited := make([]bool, n)
	// BFS scratch of pseudoPeripheral, owned here so a block of many
	// components (a diagonal block has n) costs O(n + nnz) in all: the level
	// queue, and a stamp array in place of a visited set cleared per search.
	queue := make([]int32, n)
	stamp := make([]int, n)
	search := 0 // number of the last BFS that wrote stamp
	for start := int32(0); int(start) < n; {
		if visited[start] {
			start++
			continue
		}
		root := pseudoPeripheral(start, adjPtr, adj, deg, queue, stamp, &search)
		// Only an asymmetric structure can lead from start to a visited
		// root, or to one that cannot reach start back. Rooting at start in
		// the first case, and retrying start until it is visited, keeps perm
		// a permutation whatever the input.
		if visited[root] {
			root = start
		}
		// Cuthill-McKee BFS from root; neighbors are pre-sorted by
		// (degree, id), so the queue order is the classic CM order.
		head := len(perm)
		perm = append(perm, root)
		visited[root] = true
		for head < len(perm) {
			u := perm[head]
			head++
			for _, v := range adj[adjPtr[u]:adjPtr[u+1]] {
				if !visited[v] {
					visited[v] = true
					perm = append(perm, v)
				}
			}
		}
	}
	// Reverse: RCM. Reversing across component boundaries only reverses the
	// component order, which is harmless (no cross-component fill).
	slices.Reverse(perm)
	return perm
}

// neighborhoods returns each node's degree (its entries off the diagonal)
// and a copy of the pattern without the diagonal, adj[adjPtr[i]:adjPtr[i+1]]
// row i's entries in (degree, id) order: the Cuthill-McKee visit order,
// which keeps the BFS loops comparison-free.
func neighborhoods(rowPtr, col []int32) (deg, adjPtr, adj []int32) {
	n := len(rowPtr) - 1
	deg = make([]int32, n)
	var maxDeg, nnz int32
	for i := range deg {
		for _, c := range col[rowPtr[i]:rowPtr[i+1]] {
			if int(c) != i {
				deg[i]++
			}
		}
		maxDeg, nnz = max(maxDeg, deg[i]), nnz+deg[i]
	}
	// The copy is a transpose of a transpose, each a counting pass and a
	// fill: tRow lists, per node, the rows that list it (once per entry);
	// then the nodes, walked in (degree, id) order (a counting sort by
	// degree, stable in id), are appended to those rows. The keys are unique
	// per node, so every row comes out as a sort by them would leave it,
	// duplicate entries adjacent — in O(n + nnz) whatever the pattern.
	// adjPtr, adj and the counting scratch are one allocation.
	slab := make([]int32, 2*(n+1)+2*int(nnz)+2*n+int(maxDeg)+2)
	cut := func(k int) []int32 {
		out := slab[:k:k]
		slab = slab[k:]
		return out
	}
	adjPtr, adj = cut(n+1), cut(int(nnz))
	tPtr, tRow := cut(n+1), cut(int(nnz))
	order, next, count := cut(n), cut(n), cut(int(maxDeg)+2)
	for i, d := range deg {
		adjPtr[i+1] = adjPtr[i] + d
		count[d+1]++
		for _, c := range col[rowPtr[i]:rowPtr[i+1]] {
			if int(c) != i {
				tPtr[c+1]++
			}
		}
	}
	for d := range maxDeg + 1 {
		count[d+1] += count[d]
	}
	for v, d := range deg {
		order[count[d]] = int32(v)
		count[d]++
	}
	for v := range n {
		tPtr[v+1] += tPtr[v]
	}
	copy(next, tPtr[:n])
	for i := range n {
		for _, c := range col[rowPtr[i]:rowPtr[i+1]] {
			if int(c) != i {
				tRow[next[c]] = int32(i)
				next[c]++
			}
		}
	}
	copy(next, adjPtr[:n])
	for _, v := range order {
		for _, i := range tRow[tPtr[v]:tPtr[v+1]] {
			adj[next[i]] = v
			next[i]++
		}
	}
	return deg, adjPtr, adj
}

// pseudoPeripheral runs the George-Liu iteration restricted to start's
// component: BFS from the current root, move to the minimum-degree node of
// the last level, repeat while the eccentricity grows. queue and stamp are
// n-sized scratch: node v is visited in the current BFS iff stamp[v] equals
// *search, the caller's count of searches so far, which every BFS here
// increments (stamp starts all zero, so no number is ever reused; it is an
// int because a block of n components runs up to 2n searches). All ties
// break by node id.
func pseudoPeripheral(start int32, adjPtr, adj, deg, queue []int32, stamp []int, search *int) int32 {
	root := start
	ecc := -1
	// The iteration terminates because the eccentricity strictly grows; the
	// bound is a safety net (eccentricity < n always, and in practice the
	// loop settles within a handful of rounds).
	for iter := 0; iter < 64; iter++ {
		*search++
		cur := *search
		queue[0] = root
		stamp[root] = cur
		levStart, levEnd, qLen := 0, 1, 1
		height := 0
		lastLevel := queue[0:1]
		for levStart < levEnd {
			for i := levStart; i < levEnd; i++ {
				u := queue[i]
				for _, v := range adj[adjPtr[u]:adjPtr[u+1]] {
					if stamp[v] != cur {
						stamp[v] = cur
						queue[qLen] = v
						qLen++
					}
				}
			}
			if qLen > levEnd {
				height++
				lastLevel = queue[levEnd:qLen]
			}
			levStart, levEnd = levEnd, qLen
		}
		if height <= ecc {
			return root
		}
		ecc = height
		// Minimum-degree node of the deepest level, lowest id on ties.
		best := lastLevel[0]
		for _, u := range lastLevel[1:] {
			if deg[u] < deg[best] || (deg[u] == deg[best] && u < best) {
				best = u
			}
		}
		root = best
	}
	return root
}
