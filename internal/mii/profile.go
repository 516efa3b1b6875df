package mii

import (
	"modsched/internal/ir"
)

// Cross-II incremental MinDist.
//
// The MinDist matrix at a candidate II is the max-plus closure of the
// edge weights Delay(e) - II*Distance(e). Only the scalar weights depend
// on II; the path structure does not. Every entry is therefore the upper
// envelope of affine functions of II,
//
//	MinDist[i][j](II) = max over path profiles (delay, dist) of
//	                    delay - dist*II,
//
// where (delay, dist) are the summed delays and distances of the paths
// the Floyd-Warshall recurrence composes. A Profile materializes those
// coefficient sets once per (loop, node set); evaluating one candidate II
// is then an affine max per entry — O(n^2 * s) with tiny per-pair set
// sizes s — instead of an O(n^3) closure per II.
//
// Exactness. The sets are built by running the *same* in-place
// Floyd-Warshall recurrence as Scratch.MinDist over set-valued cells: the
// scalar update d[i][j] = max(d[i][j], dik + d[k][j]) (with dik cached
// per (k,i) row exactly as the scalar code caches it) becomes the
// Pareto-pruned union S[i][j] = S[i][j] ∪ (Sik ⊕ S[k][j]). Because
// max(f+g) = max(f) + max(g) for upper envelopes evaluated at a fixed II,
// and Pareto pruning only discards pairs dominated at *every* II >= 0,
// an inductive argument over the identical operation sequence gives
//
//	eval(S[i][j], II) == scalar-FW d[i][j] at II, for every II >= 0,
//
// including IIs below RecMII where positive-weight circuits make the
// scalar in-place result order-sensitive: both computations perform the
// same reads and writes in the same order, so they stay in lockstep.
// TestProfileMatchesFloydWarshall pins this at every II over random
// graphs and the regression corpus.
//
// Fallback. Pathological graphs can accumulate large coefficient sets
// (the frontier size is bounded by the number of distinct path distance
// sums). Building aborts once any cell exceeds maxProfileCoeffs and the
// Profile reports !OK(); callers then fall back to the scalar
// Floyd-Warshall per II, which is always available.

// Coeff is one path profile: the summed delay and distance of a family of
// dependence paths. Its value at a candidate II is Delay - Dist*II.
type Coeff struct {
	Delay, Dist int
}

// maxProfileCoeffs caps the per-cell coefficient-set size. Real
// dependence graphs stay in low single digits (distances are small and
// Pareto pruning keeps one delay per distinct distance); the cap only
// exists so adversarial inputs degrade to the scalar path instead of
// exploding.
const maxProfileCoeffs = 24

// Profile holds the II-independent MinDist coefficients for one node set
// of one loop. Build once with BuildProfile, evaluate per candidate II
// with Eval/Diagonal; a Profile is immutable after construction and safe
// for concurrent readers.
type Profile struct {
	nodes []int // loop op indices covered, in matrix order
	index []int // loop op index -> matrix row, -1 where not covered
	n     int
	sets  [][]Coeff // n*n cells; empty cell == NegInf (no path)
	ok    bool
}

// OK reports whether the profile was built within the size cap. A !OK()
// profile must not be evaluated; use the scalar Floyd-Warshall instead.
func (p *Profile) OK() bool { return p != nil && p.ok }

// Nodes returns the covered loop op indices in matrix order.
func (p *Profile) Nodes() []int { return p.nodes }

// Coeffs returns the coefficient set for loop ops (i, j), which must be
// covered. The returned slice is shared; callers must not mutate it.
func (p *Profile) Coeffs(i, j int) []Coeff {
	return p.sets[p.index[i]*p.n+p.index[j]]
}

// evalCoeff evaluates one path profile at a candidate II with the
// overflow guard of this package: NegInf (math.MinInt/4) leaves headroom
// for adding two in-range path lengths, and this evaluation must never
// produce a value that wraps past it. A dist*II product large enough to
// leave that range saturates to NegInf — at such IIs the path is
// infinitely unprofitable, and NegInf is exactly "no usable path".
// TestEvalCoeffNoWrap pins that a pathological dist*II cannot wrap.
func evalCoeff(c Coeff, ii int) int {
	if c.Dist > 0 {
		// c.Delay - c.Dist*ii < NegInf  <=>  ii > (c.Delay - NegInf)/c.Dist.
		// Both sides of the division are nonnegative (Delay > NegInf
		// always holds for built profiles), so the quotient cannot
		// itself overflow.
		if ii > (c.Delay-NegInf)/c.Dist {
			return NegInf
		}
	}
	return c.Delay - c.Dist*ii
}

// evalSet is the affine max over one cell: NegInf for the empty set.
func evalSet(set []Coeff, ii int) int {
	v := NegInf
	for _, c := range set {
		if e := evalCoeff(c, ii); e > v {
			v = e
		}
	}
	return v
}

// Diagonal evaluates only the matrix diagonal at the candidate II and
// reports whether any entry is positive — the RecMII feasibility test —
// and whether any entry is exactly zero (a tight recurrence circuit).
// O(n * s) against the O(n^3) scalar closure.
func (p *Profile) Diagonal(ii int, c *Counters) (positive, zero bool) {
	if c != nil {
		c.ProfileProbes++
	}
	for r := 0; r < p.n; r++ {
		switch v := evalSet(p.sets[r*p.n+r], ii); {
		case v > 0:
			return true, false
		case v == 0:
			zero = true
		}
	}
	return false, zero
}

// Eval materializes the full MinDist matrix at the candidate II into ws's
// reusable buffers, byte-identical to what Scratch.MinDist computes but
// in O(n^2 * s). The returned *MinDist aliases ws like Scratch.MinDist's
// result does.
func (p *Profile) Eval(ws *Scratch, ii int, c *Counters) *MinDist {
	md := &ws.md
	nOps := len(p.index)
	n := p.n

	// Dense index upkeep, mirroring Scratch.MinDist (see its invariant).
	if cap(md.index) < nOps {
		md.index = make([]int, nOps)
		for i := range md.index {
			md.index[i] = -1
		}
	} else {
		full := md.index[:cap(md.index)]
		for _, v := range md.Nodes {
			full[v] = -1
		}
		md.index = full[:nOps]
	}
	md.Nodes = append(md.Nodes[:0], p.nodes...)
	for r, v := range md.Nodes {
		md.index[v] = r
	}

	md.II = ii
	md.n = n
	if cap(md.d) < n*n {
		md.d = make([]int, n*n)
	} else {
		md.d = md.d[:n*n]
	}
	if c != nil {
		c.ProfileProbes++
	}
	for i := range md.d {
		md.d[i] = evalSet(p.sets[i], ii)
	}
	return md
}

// BuildProfile computes the coefficient sets for the given node subset of
// the loop (pass AllNodes(l) for the whole graph). delays is indexed like
// l.Edges; only edges with both endpoints inside nodes contribute. The
// result reports !OK() when the size cap was hit, in which case callers
// must fall back to the scalar per-II Floyd-Warshall.
func BuildProfile(l *ir.Loop, delays []int, nodes []int, c *Counters) *Profile {
	nOps := l.NumOps()
	n := len(nodes)
	p := &Profile{
		nodes: append([]int(nil), nodes...),
		index: make([]int, nOps),
		n:     n,
		sets:  make([][]Coeff, n*n),
		ok:    true,
	}
	if c != nil {
		c.ProfileBuilds++
	}
	for i := range p.index {
		p.index[i] = -1
	}
	for r, v := range p.nodes {
		p.index[v] = r
	}

	// Initialization mirrors the scalar matrix: per (from,to) keep the
	// edge-implied coefficients. The scalar code keeps only the max weight
	// at the build II; here every edge contributes its (delay, distance)
	// pair and Pareto pruning keeps exactly the pairs that can win at some
	// II, which includes the scalar max at every II.
	for ei, e := range l.Edges {
		r, cc := p.index[e.From], p.index[e.To]
		if r < 0 || cc < 0 {
			continue
		}
		p.sets[r*n+cc] = mergeCoeff(p.sets[r*n+cc], Coeff{Delay: delays[ei], Dist: e.Distance})
	}

	// Set-valued in-place Floyd-Warshall, same loop structure and
	// read/write order as Scratch.MinDist: the (k,i) row caches S[i][k]
	// before the inner loop exactly as the scalar code caches dik, so the
	// two computations stay in lockstep even when positive-weight circuits
	// (II below RecMII) make the in-place result order-sensitive.
	var sik, skjBuf []Coeff // snapshot buffers, reused across rows
	for k := 0; k < n; k++ {
		kn := k * n
		for i := 0; i < n; i++ {
			cell := p.sets[i*n+k]
			if len(cell) == 0 {
				continue
			}
			// Snapshot: the j loop below may update S[i][k] (at j == k)
			// but the scalar code keeps using its cached dik.
			sik = append(sik[:0], cell...)
			in := i * n
			for j := 0; j < n; j++ {
				skj := p.sets[kn+j]
				if len(skj) == 0 {
					continue
				}
				if i == k {
					// S[i][j] aliases S[k][j] on this row: the scalar
					// code reads d[k][j] before writing it, so the merge
					// below must see the pre-update set, not a backing
					// array it is mutating mid-iteration.
					skj = append(skjBuf[:0], skj...)
					skjBuf = skj
				}
				merged := p.sets[in+j]
				for _, a := range sik {
					for _, b := range skj {
						merged = mergeCoeff(merged, Coeff{Delay: a.Delay + b.Delay, Dist: a.Dist + b.Dist})
					}
				}
				if len(merged) > maxProfileCoeffs {
					p.ok = false
					p.sets = nil
					return p
				}
				p.sets[in+j] = merged
			}
		}
	}
	return p
}

// mergeCoeff inserts nc into a Pareto frontier kept sorted by Dist
// ascending with Delay strictly increasing: a pair is dominated (and
// dropped) when another pair has Delay >= its Delay and Dist <= its Dist,
// i.e. is at least as good at every II >= 0.
func mergeCoeff(set []Coeff, nc Coeff) []Coeff {
	// Find the insertion point by Dist.
	lo, hi := 0, len(set)
	for lo < hi {
		mid := (lo + hi) / 2
		if set[mid].Dist < nc.Dist {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Dominated by an existing pair with Dist <= nc.Dist and Delay >=
	// nc.Delay? Delays increase with Dist, so checking the predecessor
	// (largest Dist <= nc.Dist) suffices — with equal Dist at set[lo].
	if lo < len(set) && set[lo].Dist == nc.Dist {
		if set[lo].Delay >= nc.Delay {
			return set
		}
		// nc strictly improves the same distance: replace, then sweep.
		set[lo] = nc
	} else if lo > 0 && set[lo-1].Delay >= nc.Delay {
		return set
	} else {
		set = append(set, Coeff{})
		copy(set[lo+1:], set[lo:])
		set[lo] = nc
	}
	// Drop successors nc now dominates (Dist >= nc.Dist, Delay <= nc.Delay).
	keep := lo + 1
	for j := lo + 1; j < len(set); j++ {
		if set[j].Delay <= nc.Delay {
			continue
		}
		set[keep] = set[j]
		keep++
	}
	return set[:keep]
}
