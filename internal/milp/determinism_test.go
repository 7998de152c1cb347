package milp

import (
	"math/rand"
	"testing"

	"syccl/internal/lp"
)

// TestWorkersDeterminism pins branch-and-bound optimality on random
// knapsacks against brute force.
func TestWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(5)
		values := make([]float64, n)
		weights := make([]float64, n)
		var wsum float64
		for i := range values {
			values[i] = float64(1 + rng.Intn(40))
			weights[i] = float64(1 + rng.Intn(15))
			wsum += weights[i]
		}
		capacity := wsum * (0.3 + 0.4*rng.Float64())

		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					v += values[i]
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}

		p := NewProblem(n)
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			p.SetBinary(i)
			p.LP.SetObjective(i, -values[i])
			terms[i] = lp.Term{Var: i, Coeff: weights[i]}
		}
		p.LP.AddConstraint(terms, lp.LE, capacity)

		s, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != StatusOptimal || !approx(-s.Objective, best, 1e-6) {
			t.Fatalf("trial %d: %v objective %g, brute force %g", trial, s.Status, -s.Objective, best)
		}
	}
}

// TestWorkersDeterminismSchedule solves the time-expanded scheduling
// shape the exact sub-demand engine emits (equality rows and precedence
// couplings make the relaxations degenerate) to proved optimality.
func TestWorkersDeterminismSchedule(t *testing.T) {
	s, err := Solve(scheduleMILP(12, 4, 7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal {
		t.Fatalf("status %v", s.Status)
	}
}

// TestNodeLimitStatusAndBound: hitting MaxNodes before the proof closes
// must report StatusFeasible (incumbent in hand) or StatusUnknown (none),
// never StatusOptimal, and the reported Bound must still be a valid lower
// bound on the true optimum.
func TestNodeLimitStatusAndBound(t *testing.T) {
	p, want := hardKnapsack(18, 54321)
	s, err := Solve(p, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	switch s.Status {
	case StatusFeasible:
		if s.Objective < want-1e-6 {
			t.Errorf("incumbent %g better than optimum %g", s.Objective, want)
		}
	case StatusUnknown:
		if s.X != nil {
			t.Errorf("unknown status carries a solution vector")
		}
	default:
		t.Fatalf("status %v under MaxNodes=3, want feasible or unknown", s.Status)
	}
	if s.Bound > want+1e-6 {
		t.Errorf("bound %g exceeds true optimum %g", s.Bound, want)
	}

	// With an incumbent seeded, a node limit must preserve it.
	inc := make([]float64, p.LP.NumVars())
	seeded, err := Solve(p, Options{MaxNodes: 1, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status != StatusFeasible && seeded.Status != StatusOptimal {
		t.Fatalf("seeded status %v, want feasible", seeded.Status)
	}
	if seeded.Objective > 1e-6 {
		t.Errorf("seeded incumbent lost: objective %g, seed had 0", seeded.Objective)
	}
}
