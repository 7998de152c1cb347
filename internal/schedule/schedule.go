// Package schedule represents collective-communication schedules: the
// concrete sequence of inter-GPU transfers that satisfies a collective
// demand on a topology.
//
// A schedule moves *pieces*. A piece is a fraction of one collective chunk
// (sketch combinations split chunks across sketches, §4.2), or — for
// reduction collectives — a slice that aggregates several chunks: when
// contributions toward the same destination meet at a relay they travel on
// as a single combined piece, which is why a Reduce costs the same as the
// mirrored Broadcast (§4.1).
//
// Each Transfer carries one piece across one topology dimension and lists
// the transfers that must complete before it may start. The simulator
// (package sim) serializes transfers that share a GPU port and respects
// dependencies; the Order field breaks ties on shared ports.
package schedule

import (
	"fmt"
	"sort"

	"syccl/internal/collective"
)

// Piece is a unit of payload moved by transfers.
type Piece struct {
	// Chunks lists the collective chunk IDs this piece carries data of.
	// Forward (non-reduce) pieces cover exactly one chunk; reduction
	// pieces may cover many (the contributions being combined).
	Chunks []int
	// Bytes is the wire size of the piece. For a forward piece covering a
	// fraction t of a chunk of size s, Bytes = t·s; a reduction piece has
	// the same size no matter how many chunks it combines.
	Bytes float64
}

// Transfer is a single communication event.
type Transfer struct {
	Src, Dst int   // GPU IDs
	Piece    int   // index into Schedule.Pieces
	Dim      int   // topology dimension whose ports the transfer uses
	Deps     []int // indices of transfers that must complete first
	Order    int   // tie-break priority on shared ports (lower first)
}

// Schedule is a complete set of transfers satisfying a collective.
type Schedule struct {
	NumGPUs   int
	Pieces    []Piece
	Transfers []Transfer
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{NumGPUs: s.NumGPUs}
	c.Pieces = make([]Piece, len(s.Pieces))
	for i, p := range s.Pieces {
		c.Pieces[i] = Piece{Chunks: append([]int(nil), p.Chunks...), Bytes: p.Bytes}
	}
	c.Transfers = make([]Transfer, len(s.Transfers))
	for i, t := range s.Transfers {
		t.Deps = append([]int(nil), t.Deps...)
		c.Transfers[i] = t
	}
	return c
}

// AddPiece appends a piece and returns its index.
func (s *Schedule) AddPiece(bytes float64, chunks ...int) int {
	s.Pieces = append(s.Pieces, Piece{Chunks: append([]int(nil), chunks...), Bytes: bytes})
	return len(s.Pieces) - 1
}

// AddTransfer appends a transfer and returns its index.
func (s *Schedule) AddTransfer(t Transfer) int {
	s.Transfers = append(s.Transfers, t)
	return len(s.Transfers) - 1
}

// TotalTransferBytes sums the wire bytes of all transfers.
func (s *Schedule) TotalTransferBytes() float64 {
	var sum float64
	for _, t := range s.Transfers {
		sum += s.Pieces[t.Piece].Bytes
	}
	return sum
}

// topoOrder returns a topological order of transfer indices, or an error
// if the dependency graph has a cycle.
func (s *Schedule) topoOrder() ([]int, error) {
	n := len(s.Transfers)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i, t := range s.Transfers {
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("schedule: transfer %d has out-of-range dep %d", i, d)
			}
			succ[d] = append(succ[d], i)
			indeg[i]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("schedule: dependency cycle among transfers")
	}
	return order, nil
}

// Validate checks that the schedule is structurally sound and satisfies
// the collective demand col:
//
//   - dependency graph is acyclic and references are in range;
//   - every chunk is fully covered: the piece fractions covering each
//     chunk sum to the chunk size;
//   - forward pieces propagate correctly: a GPU only sends a piece it
//     originated or previously received (enforced through dependencies);
//   - every demanded (chunk, destination) pair is delivered;
//   - reduction pieces form flows in which every contributing source
//     reaches the destination, and a sender has received all inbound
//     contributions before sending (enforced through dependencies).
func (s *Schedule) Validate(col *collective.Collective) error {
	if s.NumGPUs != col.NumGPUs {
		return fmt.Errorf("schedule: NumGPUs %d != collective %d", s.NumGPUs, col.NumGPUs)
	}
	order, err := s.topoOrder()
	if err != nil {
		return err
	}
	for i, t := range s.Transfers {
		if t.Src < 0 || t.Src >= s.NumGPUs || t.Dst < 0 || t.Dst >= s.NumGPUs || t.Src == t.Dst {
			return fmt.Errorf("schedule: transfer %d has bad endpoints %d->%d", i, t.Src, t.Dst)
		}
		if t.Piece < 0 || t.Piece >= len(s.Pieces) {
			return fmt.Errorf("schedule: transfer %d references missing piece %d", i, t.Piece)
		}
	}

	// Chunk coverage: fraction-weighted piece bytes per chunk.
	cover := make([]float64, len(col.Chunks))
	for _, p := range s.Pieces {
		for _, c := range p.Chunks {
			if c < 0 || c >= len(col.Chunks) {
				return fmt.Errorf("schedule: piece references missing chunk %d", c)
			}
			cover[c] += p.Bytes
		}
	}
	const tol = 1e-6
	for c, got := range cover {
		if len(col.Chunks[c].Dsts) == 0 {
			continue
		}
		if got < col.ChunkSize*(1-tol) || got > col.ChunkSize*(1+tol) {
			return fmt.Errorf("schedule: chunk %d covered by %g bytes of pieces, want %g", c, got, col.ChunkSize)
		}
	}

	// Walk transfers in dependency order tracking piece possession.
	// has[p] is the set of GPUs holding piece p (for reduction pieces:
	// holding the partial aggregate rooted at their subtree), origin[p]
	// the set holding it before any transfer runs. Both are dense
	// per-GPU slices; holds treats GPUs outside the schedule as never
	// holding anything.
	ng := s.NumGPUs
	has := make([][]bool, len(s.Pieces))
	origin := make([][]bool, len(s.Pieces))
	for p := range s.Pieces {
		has[p] = make([]bool, ng)
		origin[p] = make([]bool, ng)
		mark := func(g int) {
			if g >= 0 && g < ng {
				has[p][g], origin[p][g] = true, true
			}
		}
		chunks := s.Pieces[p].Chunks
		switch {
		case len(chunks) == 0:
		case col.Reduce && len(chunks) > 1:
			// A reduction slice: every contributor starts with its own
			// partial aggregate.
			for _, c := range chunks {
				mark(col.Chunks[c].Src)
			}
		default:
			// A forward piece is the concatenation of its chunks: only a
			// GPU sourcing every one of them holds the piece before any
			// transfer runs. (Sourcing a single chunk of a multi-chunk
			// piece is not possession of the piece.)
			src := col.Chunks[chunks[0]].Src
			whole := true
			for _, c := range chunks[1:] {
				if col.Chunks[c].Src != src {
					whole = false
					break
				}
			}
			if whole {
				mark(src)
			}
		}
	}
	holds := func(p, g int) bool { return g >= 0 && g < ng && has[p][g] }
	// inbound[p*ng+g] lists the transfers delivering piece p to GPU g.
	inbound := make(map[int][]int, len(s.Transfers))
	for i, t := range s.Transfers {
		k := t.Piece*ng + t.Dst
		inbound[k] = append(inbound[k], i)
	}
	// depOf[d] == i+1 iff transfer d is a dependency of transfer i (the
	// one being checked); stamping avoids clearing between transfers.
	depOf := make([]int, len(s.Transfers))
	for _, i := range order {
		t := s.Transfers[i]
		p := t.Piece
		reduce := len(s.Pieces[p].Chunks) > 1 && col.Reduce
		if !has[p][t.Src] {
			return fmt.Errorf("schedule: transfer %d sends piece %d from GPU %d which never obtains it", i, p, t.Src)
		}
		for _, d := range t.Deps {
			depOf[d] = i + 1
		}
		in := inbound[p*ng+t.Src]
		if reduce {
			// Sender must have waited for every inbound contribution.
			for _, d := range in {
				if depOf[d] != i+1 {
					return fmt.Errorf("schedule: reduction transfer %d from GPU %d missing dep on inbound transfer %d", i, t.Src, d)
				}
			}
		} else if !origin[p][t.Src] {
			// Sender must depend on at least one inbound delivery.
			ok := false
			for _, d := range in {
				if depOf[d] == i+1 {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("schedule: transfer %d relays piece %d from GPU %d without a dependency on its arrival", i, p, t.Src)
			}
		}
		has[p][t.Dst] = true
	}

	// Demand satisfaction.
	for c, ch := range col.Chunks {
		for _, d := range ch.Dsts {
			satisfied := 0.0
			for p, piece := range s.Pieces {
				for _, pc := range piece.Chunks {
					if pc == c && holds(p, d) {
						satisfied += piece.Bytes
						break
					}
				}
			}
			if satisfied < col.ChunkSize*(1-tol) {
				return fmt.Errorf("schedule: chunk %d not delivered to GPU %d (%g of %g bytes)", c, d, satisfied, col.ChunkSize)
			}
		}
	}
	return nil
}

// Mirror returns the time-reversed schedule: every transfer's endpoints are
// swapped, dependency edges are reversed, and Order is negated so relative
// port ordering reverses too. Mirroring a Broadcast schedule yields a
// Reduce schedule of identical cost (§4.1: all-to-one collectives are the
// inverses of one-to-all ones). remap rewrites each piece for the mirrored
// collective (e.g. a broadcast piece of chunk 0 becomes a reduction piece
// covering all contributions); passing nil keeps pieces unchanged.
func (s *Schedule) Mirror(remap func(Piece) Piece) *Schedule {
	m := &Schedule{NumGPUs: s.NumGPUs}
	m.Pieces = make([]Piece, len(s.Pieces))
	for i, p := range s.Pieces {
		q := Piece{Chunks: append([]int(nil), p.Chunks...), Bytes: p.Bytes}
		if remap != nil {
			q = remap(q)
		}
		m.Pieces[i] = q
	}
	// Reversed dependency edges: if t2 depended on t1, mirrored t1'
	// depends on t2'.
	rev := make([][]int, len(s.Transfers))
	for i, t := range s.Transfers {
		for _, d := range t.Deps {
			rev[d] = append(rev[d], i)
		}
	}
	m.Transfers = make([]Transfer, len(s.Transfers))
	for i, t := range s.Transfers {
		m.Transfers[i] = Transfer{
			Src:   t.Dst,
			Dst:   t.Src,
			Piece: t.Piece,
			Dim:   t.Dim,
			Deps:  append([]int(nil), rev[i]...),
			Order: -t.Order,
		}
	}
	return m
}

// PhaseOrderBase is the Order offset Concat adds to phase-b transfers so
// they sort after every phase-a transfer on shared ports. Consumers (e.g.
// the verify oracle) use it to split a concatenated schedule back into its
// phases.
const PhaseOrderBase = 1 << 20

// Concat appends b after a with cross-phase dependencies: each transfer of
// b whose source GPU g received data in a (or that has no deps of its own)
// additionally depends on all of a's transfers delivering into g. This
// models AllReduce = ReduceScatter ; AllGather, where GPU g may start
// gathering its reduced slice only once the slice is fully reduced at g.
func Concat(a, b *Schedule) *Schedule {
	if a.NumGPUs != b.NumGPUs {
		panic("schedule.Concat: GPU count mismatch")
	}
	out := a.Clone()
	pieceOff := len(out.Pieces)
	transOff := len(out.Transfers)
	for _, p := range b.Pieces {
		out.Pieces = append(out.Pieces, Piece{Chunks: append([]int(nil), p.Chunks...), Bytes: p.Bytes})
	}
	// a's inbound transfers per GPU.
	inboundA := make(map[int][]int)
	for i, t := range a.Transfers {
		inboundA[t.Dst] = append(inboundA[t.Dst], i)
	}
	for _, t := range b.Transfers {
		nt := Transfer{
			Src:   t.Src,
			Dst:   t.Dst,
			Piece: t.Piece + pieceOff,
			Dim:   t.Dim,
			Order: t.Order + PhaseOrderBase, // phase-b transfers order after phase a
		}
		for _, d := range t.Deps {
			nt.Deps = append(nt.Deps, d+transOff)
		}
		if len(t.Deps) == 0 {
			// b-phase origin transfer: wait for phase a to finish at src.
			nt.Deps = append(nt.Deps, inboundA[t.Src]...)
		}
		out.Transfers = append(out.Transfers, nt)
	}
	return out
}

// Stats summarizes a schedule for reporting and lint checks.
type Stats struct {
	Transfers        int
	Pieces           int
	WireBytes        float64
	MaxHops          int // longest dependency chain
	DuplicateArrival int // deliveries of a piece to a GPU that already holds it
	PerDimBytes      []float64
}

// ComputeStats derives Stats. dims is the number of topology dimensions.
func (s *Schedule) ComputeStats(dims int) Stats {
	st := Stats{Transfers: len(s.Transfers), Pieces: len(s.Pieces), PerDimBytes: make([]float64, dims)}
	depth := make([]int, len(s.Transfers))
	order, err := s.topoOrder()
	if err != nil {
		order = nil
	}
	seen := make(map[[2]int]bool) // (piece, dst)
	for _, i := range order {
		t := s.Transfers[i]
		b := s.Pieces[t.Piece].Bytes
		st.WireBytes += b
		if t.Dim >= 0 && t.Dim < dims {
			st.PerDimBytes[t.Dim] += b
		}
		d := 1
		for _, dep := range t.Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[i] = d
		if d > st.MaxHops {
			st.MaxHops = d
		}
		key := [2]int{t.Piece, t.Dst}
		if seen[key] {
			st.DuplicateArrival++
		}
		seen[key] = true
	}
	return st
}

// SortTransfersByOrder stably sorts transfers by Order, rewriting Deps and
// keeping semantics. Useful to normalize schedules for comparison and
// serialization.
func (s *Schedule) SortTransfersByOrder() {
	idx := make([]int, len(s.Transfers))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Transfers[idx[a]].Order < s.Transfers[idx[b]].Order })
	pos := make([]int, len(idx))
	for newPos, old := range idx {
		pos[old] = newPos
	}
	nt := make([]Transfer, len(s.Transfers))
	for newPos, old := range idx {
		t := s.Transfers[old]
		deps := make([]int, len(t.Deps))
		for j, d := range t.Deps {
			deps[j] = pos[d]
		}
		sort.Ints(deps)
		t.Deps = deps
		nt[newPos] = t
	}
	s.Transfers = nt
}
