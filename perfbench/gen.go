package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"syccl/internal/cli"
	"syccl/internal/serve"
	"syccl/internal/topology"
)

// demand is one planner request as the benchmark sends it. Delta is a
// topology.ParseDelta spec ("" for the healthy fabric).
type demand struct {
	Topology   string
	Collective string
	Size       string
	Delta      string
}

func (d demand) String() string {
	s := d.Topology + "/" + d.Collective + "/" + d.Size
	if d.Delta != "" {
		s += "/" + d.Delta
	}
	return s
}

// body is the JSON request body for POST /v1/synthesize or /v1/replan.
func (d demand) body(stream, bypassStore bool) []byte {
	b, err := json.Marshal(serve.Request{
		Topology:      d.Topology,
		Collective:    d.Collective,
		Size:          d.Size,
		TopologyDelta: d.Delta,
		Stream:        stream,
		BypassStore:   bypassStore,
	})
	if err != nil {
		panic(err) // a flat struct of strings and bools always encodes
	}
	return b
}

// grid is the cross product topologies × collectives × sizes, in order.
func grid(topos, colls, sizes []string) []demand {
	var out []demand
	for _, t := range topos {
		for _, c := range colls {
			for _, s := range sizes {
				out = append(out, demand{Topology: t, Collective: c, Size: s})
			}
		}
	}
	return out
}

// Fixed demand sets. The quality metrics are computed over coldQuality,
// storeSet, engineSet and the faults of faultQuality, so they repeat
// exactly from run to run and seed to seed.
var (
	coldCombos  = grid([]string{"a100x16", "h800small"}, []string{"allgather", "allreduce", "alltoall"}, []string{""})
	coldQuality = grid([]string{"a100x16", "h800small"}, []string{"allgather", "allreduce", "alltoall"}, []string{"1M", "64M"})
	// coldPrime is served once per setup, below the measured size range.
	coldPrime   = grid([]string{"a100x16", "h800small"}, []string{"allgather"}, []string{"512K"})
	storeSet    = grid([]string{"dgx4", "a100x16", "h800small"}, []string{"allgather", "reducescatter", "allreduce", "alltoall"}, []string{"1M", "64M"})
	engineSet   = grid([]string{"a100x16", "h800small"}, []string{"allgather", "reducescatter", "allreduce"}, []string{"1M", "64M"})
	faultBases  = grid([]string{"a100x16", "h800small"}, []string{"allgather", "allreduce"}, []string{"1M"})
	faultFactor = [2]int{2, 8}
)

// Cold sizes are multiples of 64 KiB drawn log-uniformly from 1 MiB to
// 256 MiB. The sizes of the cold quality set are never drawn, so the
// measured requests stay cold with respect to it.
const (
	sizeUnit = 64 << 10
	minUnits = 16   // 1 MiB
	maxUnits = 4096 // 256 MiB
)

var reservedUnits = map[int]bool{16: true, 1024: true}

// coldSequence returns the first n requests of the cold_synth workload:
// rounds over a seeded permutation of coldCombos, each with a seeded size
// no earlier request used for that topology and collective.
func coldSequence(seed int64, n int) []demand {
	rng := rand.New(rand.NewSource(seed))
	type key struct{ combo, units int }
	used := make(map[key]bool)
	out := make([]demand, 0, n)
	for len(out) < n {
		for _, ci := range rng.Perm(len(coldCombos)) {
			units := 0
			for {
				units = int(math.Round(minUnits * math.Pow(maxUnits/minUnits, rng.Float64())))
				if !reservedUnits[units] && !used[key{ci, units}] {
					break
				}
			}
			used[key{ci, units}] = true
			d := coldCombos[ci]
			d.Size = strconv.Itoa(units * sizeUnit)
			out = append(out, d)
		}
	}
	return out[:n]
}

// newRounds returns a generator that walks set in rounds, each a seeded
// permutation, so every demand is planned equally often and only the
// order depends on the seed.
func newRounds(set []demand, seed int64) func() demand {
	rng := rand.New(rand.NewSource(seed))
	var perm []int
	return func() demand {
		if len(perm) == 0 {
			perm = rng.Perm(len(set))
		}
		d := set[perm[0]]
		perm = perm[1:]
		return d
	}
}

// newDraw returns a generator of seeded uniform draws from set. stream
// separates the independent sequences of concurrent clients under one
// seed.
func newDraw(set []demand, seed int64, stream int) func() demand {
	rng := rand.New(rand.NewSource(seed*7919 + int64(stream)))
	return func() demand { return set[rng.Intn(len(set))] }
}

// faultSpace lists, for one base topology, the links a fault may hit:
// rail uplinks (NIC to leaf switch, whose kill leaves the fabric
// connected) and every link, grouped by the kinds of its two ends (for
// slow and lag).
type faultSpace struct {
	uplinks [][2]int
	classes [][][2]int
}

func newFaultSpace(top *topology.Topology) faultSpace {
	seen := make(map[[2]int]bool)
	byClass := make(map[[2]topology.NodeKind][][2]int)
	var fs faultSpace
	for _, l := range top.Links {
		p := [2]int{l.Src, l.Dst}
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		a, b := top.Nodes[p[0]].Kind, top.Nodes[p[1]].Kind
		if a > b {
			a, b = b, a
		}
		byClass[[2]topology.NodeKind{a, b}] = append(byClass[[2]topology.NodeKind{a, b}], p)
		if a == topology.KindNIC && b == topology.KindLeafSwitch {
			fs.uplinks = append(fs.uplinks, p)
		}
	}
	less := func(s [][2]int) func(i, j int) bool {
		return func(i, j int) bool { return s[i][0] < s[j][0] || (s[i][0] == s[j][0] && s[i][1] < s[j][1]) }
	}
	var keys [][2]topology.NodeKind
	for k := range byClass {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, k := range keys {
		links := byClass[k]
		sort.Slice(links, less(links))
		fs.classes = append(fs.classes, links)
	}
	sort.Slice(fs.uplinks, less(fs.uplinks))
	return fs
}

// faultSpaces builds the fault space of every fault base topology.
func faultSpaces() (map[string]faultSpace, error) {
	out := make(map[string]faultSpace)
	for _, b := range faultBases {
		if _, ok := out[b.Topology]; ok {
			continue
		}
		top, err := cli.ParseTopology(b.Topology)
		if err != nil {
			return nil, err
		}
		out[b.Topology] = newFaultSpace(top)
	}
	return out, nil
}

// faultSequence returns the first n fault events of the fault_replan
// workload (fewer when the fault space runs out). Events go in rounds
// over a seeded permutation of every stratum — per base demand, a kill of
// a rail uplink, or a slow (β) or lag (α) by an integer factor from 2 to 8
// of a link of one class — so every seed replays the same mix. Each event
// takes the next fault of its stratum from a seeded shuffle of the
// stratum's links and factors, so no fault repeats.
func faultSequence(seed int64, n int, spaces map[string]faultSpace) []demand {
	rng := rand.New(rand.NewSource(seed))
	var strata [][]demand
	for _, b := range faultBases {
		fs := spaces[b.Topology]
		var kill []demand
		for _, p := range fs.uplinks {
			d := b
			d.Delta = fmt.Sprintf("kill:%d-%d", p[0], p[1])
			kill = append(kill, d)
		}
		strata = append(strata, kill)
		for _, op := range []string{"slow", "lag"} {
			for _, links := range fs.classes {
				var pool []demand
				for _, p := range links {
					for f := faultFactor[0]; f <= faultFactor[1]; f++ {
						d := b
						d.Delta = fmt.Sprintf("%s:%d-%d*%d", op, p[0], p[1], f)
						pool = append(pool, d)
					}
				}
				strata = append(strata, pool)
			}
		}
	}
	for _, pool := range strata {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		// Links of one class are symmetric, so a repeated factor within a
		// stratum replays from the isomorphism cache. Cycling through every
		// factor before repeating one makes that share of cache hits the
		// same for every seed.
		rank := make(map[demand]int, len(pool))
		seen := make(map[string]int)
		for _, d := range pool {
			f := d.Delta[strings.LastIndexByte(d.Delta, '*')+1:]
			rank[d] = seen[f]
			seen[f]++
		}
		sort.SliceStable(pool, func(i, j int) bool { return rank[pool[i]] < rank[pool[j]] })
	}
	var out []demand
	for len(out) < n {
		progressed := false
		for _, si := range rng.Perm(len(strata)) {
			if len(out) == n || len(strata[si]) == 0 {
				continue
			}
			out = append(out, strata[si][0])
			strata[si] = strata[si][1:]
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out
}

// faultQuality is the fixed fault set the fault_replan quality metrics
// are computed over: per base, a kill and a 4x slow of its first rail
// uplink.
func faultQuality(spaces map[string]faultSpace) []demand {
	var out []demand
	for _, b := range faultBases {
		p := spaces[b.Topology].uplinks[0]
		for _, spec := range []string{fmt.Sprintf("kill:%d-%d", p[0], p[1]), fmt.Sprintf("slow:%d-%d*4", p[0], p[1])} {
			d := b
			d.Delta = spec
			out = append(out, d)
		}
	}
	return out
}
