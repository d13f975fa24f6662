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
func rcmPerm(n int, rowPtr, col []int) []int {
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if col[p] != i {
				deg[i]++
			}
		}
	}
	// Adjacency copy with each neighborhood sorted by (degree, id): the
	// Cuthill-McKee visit order. Sorting once here keeps the BFS loops
	// comparison-free. The keys are unique within a row, so the order is a
	// total one and any correct sort yields the same permutation; byDegree
	// captures only deg, once, so no row allocates.
	adjPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		adjPtr[i+1] = adjPtr[i] + deg[i]
	}
	adj := make([]int, adjPtr[n])
	byDegree := func(a, b int) int {
		if deg[a] != deg[b] {
			return deg[a] - deg[b]
		}
		return a - b
	}
	for i := 0; i < n; i++ {
		w := adjPtr[i]
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if c := col[p]; c != i {
				adj[w] = c
				w++
			}
		}
		slices.SortFunc(adj[adjPtr[i]:adjPtr[i+1]], byDegree)
	}

	perm := make([]int, 0, n)
	visited := make([]bool, n)
	// BFS scratch of pseudoPeripheral, owned here so a block of many
	// components (a diagonal block has n) costs O(n + nnz) in all: the level
	// queue, and a stamp array in place of a visited set cleared per search.
	queue := make([]int, n)
	stamp := make([]int, n)
	search := 0 // number of the last BFS that wrote stamp
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(start, adjPtr, adj, deg, queue, stamp, &search)
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
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// pseudoPeripheral runs the George-Liu iteration restricted to start's
// component: BFS from the current root, move to the minimum-degree node of
// the last level, repeat while the eccentricity grows. queue and stamp are
// n-sized scratch: node v is visited in the current BFS iff stamp[v] equals
// *search, the caller's count of searches so far, which every BFS here
// increments (stamp starts all zero, so no number is ever reused). All ties
// break by node id.
func pseudoPeripheral(start int, adjPtr, adj, deg, queue, stamp []int, search *int) int {
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
