package solve

import (
	"math/rand"
	"sort"
)

// greedySolve runs earliest-finish list scheduling on the epoch grid.
// At every step it considers all (piece, holder, needy destination)
// triples, computes the earliest epoch at which that send could start
// given port reservations and piece availability, and commits the send
// with the earliest arrival. rng, when non-nil, randomizes near-ties to
// diversify restarts; a nil rng is fully deterministic.
func greedySolve(d *Demand, tau float64, rng *rand.Rand) *SubSchedule {
	return greedyGuided(d, tau, rng, nil)
}

// greedyWeighted is greedySolve biased by the flow relaxation: among
// equal-arrival candidates it prefers sends from GPUs the fractional
// flow routes more outflow through (quantized weights from flowWeights),
// steering the rounding toward the LP's relay structure. Deterministic.
func greedyWeighted(d *Demand, tau float64, weights [][]int) *SubSchedule {
	s := greedyGuided(d, tau, nil, weights)
	s.Engine = "greedy+flow"
	return s
}

func greedyGuided(d *Demand, tau float64, rng *rand.Rand, weights [][]int) *SubSchedule {
	n := d.NumGPUs
	// avail[p][g]: epoch at which g can forward piece p; -1 = never (yet).
	// holders[p] lists the GPUs with avail ≥ 0 and needy[p] the
	// destinations still owed p, both ascending, so the candidate scan
	// visits (piece, dst, src) in index order without testing every pair.
	avail := make([][]int, len(d.Pieces))
	holders := make([][]int, len(d.Pieces))
	needy := make([][]int, len(d.Pieces))
	params := make([]epochParams, len(d.Pieces))
	remaining := 0
	for pi, p := range d.Pieces {
		params[pi] = paramsFor(d, tau, p.Bytes)
		avail[pi] = make([]int, n)
		for g := range avail[pi] {
			avail[pi][g] = -1
		}
		for _, s := range p.Srcs {
			avail[pi][s] = 0
		}
		needed := make([]bool, n)
		for _, t := range p.Dsts {
			needed[t] = true
		}
		for g := 0; g < n; g++ {
			if avail[pi][g] >= 0 {
				holders[pi] = append(holders[pi], g)
			}
			if needed[g] {
				needy[pi] = append(needy[pi], g)
			}
		}
		remaining += len(needy[pi])
	}

	// Port reservations: for each GPU and direction, busy [start, end)
	// intervals in epochs, kept sorted by start. Reservations are made
	// only where the port is free and spans are at least one epoch, so
	// the intervals never overlap and are sorted by end as well.
	type interval struct{ start, end int }
	egress := make([][]interval, n)
	ingress := make([][]interval, n)

	// earliestFree returns the first t ≥ from at which [t, t+span) is
	// clear of every busy interval, in one pass over the sorted list.
	earliestFree := func(busy []interval, from, span int) int {
		t := from
		for _, iv := range busy {
			if iv.start >= t+span {
				break
			}
			if t < iv.end {
				t = iv.end
			}
		}
		return t
	}
	reserve := func(busy *[]interval, start, span int) {
		b := append(*busy, interval{})
		i := len(b) - 1
		for i > 0 && b[i-1].start > start {
			b[i] = b[i-1]
			i--
		}
		b[i] = interval{start, start + span}
		*busy = b
	}

	out := &SubSchedule{Tau: tau, Engine: "greedy"}

	type cand struct {
		piece, src, dst int
		start, arrive   int
	}

	// less orders candidates by earliest arrival, then (when flow weights
	// are present) by descending fractional outflow at the source, then
	// by ring offset (dst−src mod n): the offset bias makes symmetric
	// demands such as AllGather fall into rotation patterns that keep
	// every port busy instead of piling deliveries onto few ingresses.
	less := func(a, b cand, n int) bool {
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if weights != nil {
			aw, bw := weights[a.piece][a.src], weights[b.piece][b.src]
			if aw != bw {
				return aw > bw
			}
		}
		ao := ((a.dst-a.src)%n + n) % n
		bo := ((b.dst-b.src)%n + n) % n
		if ao != bo {
			return ao < bo
		}
		if a.piece != b.piece {
			return a.piece < b.piece
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	}

	// A send arrives no earlier than avail+lat, so a candidate whose
	// bound already trails the current best (by more than the one-epoch
	// near-tie window when randomizing) is skipped unexamined.
	slack := 0
	if rng != nil {
		slack = 1
	}
	var nearBest []cand
	for remaining > 0 {
		found := false
		var best cand
		nearBest = nearBest[:0]
		for pi := range d.Pieces {
			ep := params[pi]
			for _, dst := range needy[pi] {
				for _, src := range holders[pi] {
					if src == dst {
						continue
					}
					if found && avail[pi][src]+ep.lat > best.arrive+slack {
						continue
					}
					// Earliest epoch where both ports are free for span.
					start := avail[pi][src]
					for {
						s1 := earliestFree(egress[src], start, ep.span)
						s2 := earliestFree(ingress[dst], s1, ep.span)
						if s1 == s2 {
							start = s1
							break
						}
						start = s2
					}
					c := cand{pi, src, dst, start, start + ep.lat}
					if !found || c.arrive < best.arrive || (c.arrive == best.arrive && less(c, best, n)) {
						found = true
						best = c
					}
					// A candidate arriving more than one epoch after
					// the current best cannot be near the final best.
					if rng != nil && c.arrive <= best.arrive+1 {
						nearBest = append(nearBest, c)
					}
				}
			}
		}
		choice := best
		if rng != nil {
			// Pick uniformly among candidates arriving within one epoch
			// of the best.
			k := 0
			for _, c := range nearBest {
				if c.arrive <= best.arrive+1 {
					nearBest[k] = c
					k++
				}
			}
			choice = nearBest[rng.Intn(k)]
		}
		ep := params[choice.piece]
		reserve(&egress[choice.src], choice.start, ep.span)
		reserve(&ingress[choice.dst], choice.start, ep.span)
		if avail[choice.piece][choice.dst] < 0 {
			holders[choice.piece] = insertSorted(holders[choice.piece], choice.dst)
		}
		avail[choice.piece][choice.dst] = choice.arrive
		needy[choice.piece] = removeSorted(needy[choice.piece], choice.dst)
		remaining--
		out.Transfers = append(out.Transfers, Transfer{
			Src: choice.src, Dst: choice.dst, Piece: choice.piece,
			Start: choice.start, Arrive: choice.arrive,
		})
		if choice.arrive > out.Epochs {
			out.Epochs = choice.arrive
		}
	}
	sort.SliceStable(out.Transfers, func(a, b int) bool { return out.Transfers[a].Start < out.Transfers[b].Start })
	return out
}

// insertSorted inserts v into the ascending slice xs.
func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// removeSorted deletes v, which must be present, from the ascending
// slice xs.
func removeSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	return append(xs[:i], xs[i+1:]...)
}

// improveSolve runs randomized greedy restarts and keeps the best
// schedule. restarts ≤ 0 defaults to 16; the count scales down on large
// demands where each greedy pass is itself expensive (the quadratic
// candidate scan), keeping per-demand solve cost roughly flat.
func improveSolve(d *Demand, tau float64, seed int64, restarts int) *SubSchedule {
	if restarts <= 0 {
		restarts = 16
	}
	if dc := deliveryCount(d); dc > 0 {
		if limit := 2000 / dc; limit < restarts {
			restarts = limit
		}
	}
	best := greedySolve(d, tau, nil)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < restarts; i++ {
		s := greedySolve(d, tau, rng)
		if s.Epochs < best.Epochs {
			best = s
		}
	}
	best.Engine = "greedy+restarts"
	return best
}
