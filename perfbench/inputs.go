package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"modsched"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/kernels"
	"modsched/internal/loopgen"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
	"modsched/internal/server"
)

// Generator parameters of the three workloads. spec.json records the
// same values for readers; TestSpecMatchesCode keeps the two in step.
const (
	// searchMachineFile is the target of the search workload, relative
	// to the repository root.
	searchMachineFile = "testdata/machines/superscalar4.mach"
	searchLoops       = 400
	searchMedianOps   = 64
	// corpusDraws and searchDraws are how many independent seeded draws
	// of each population one run compiles. One draw's cost is set by its
	// few heaviest loops, and those differ from seed to seed far more
	// than the machine's own noise; several draws per run keep the
	// figures of different seeds comparable.
	corpusDraws = 6
	searchDraws = 6
	// introShare is the share of first compiles in the opening stream of
	// the corpus and search timed phases (see introOrder).
	introShare = 0.25
	// tinyFrac stands for a zero fraction: loopgen replaces a zero
	// config field by its default, and no rand.Float64 draw in a run
	// falls below 1e-9 in practice.
	tinyFrac = 1e-9

	serveHotLoops = 2000
	serveHotShare = 0.8
	serveClients  = 2
	serveWarmup   = 16
	// serveFreshPerSecond sizes the pool of first-sighting loops, and
	// with it the request stream: the pool lasts for this many fresh
	// loops per second of run. A 2-CPU machine serves about 250 a
	// second, so a program up to about four times faster still finds
	// the same traffic mix; past that the run stops with an error.
	serveFreshPerSecond = 1000
	// serveQualityFresh is how many fresh loops, in stream order, join
	// the hot set in the population the serve quality metrics cover.
	serveQualityFresh = 400
)

// workloads lists the workload names in the order -workload all runs
// them.
var workloads = []string{"corpus", "search", "serve"}

// subSeed derives an independent, positive, nonzero generator seed for
// one input stream of a run from the run's seed. loopgen reads a zero
// seed as "use the default", so zero is never returned.
func subSeed(seed int64, stream string) int64 {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(stream))
	v := int64(binary.LittleEndian.Uint64(h.Sum(nil)) >> 1)
	if v == 0 {
		v = 1
	}
	return v
}

// corpusConfig is draw d of the paper's 1300-loop Table 3 population
// at the seed.
func corpusConfig(seed int64, d int) loopgen.Config {
	c := loopgen.DefaultConfig()
	c.Seed = subSeed(seed, fmt.Sprintf("corpus/%d", d))
	return c
}

// searchConfig is draw d of large loops that all carry recurrences.
func searchConfig(seed int64, d int) loopgen.Config {
	c := loopgen.DefaultConfig()
	c.Seed = subSeed(seed, fmt.Sprintf("search/%d", d))
	c.N = searchLoops
	c.MedianOps = searchMedianOps
	c.VectorizableFrac = tinyFrac
	c.InitLoopFrac = tinyFrac
	return c
}

// freshConfig draws the serve workload's first-sighting loops with the
// default corpus shape.
func freshConfig(seed int64, n int) loopgen.Config {
	c := loopgen.DefaultConfig()
	c.Seed = subSeed(seed, "fresh")
	c.N = n
	return c
}

func warmupConfig(seed int64) loopgen.Config {
	c := loopgen.DefaultConfig()
	c.Seed = subSeed(seed, "warmup")
	c.N = 4 * serveWarmup
	return c
}

// findRoot walks up from the working directory to the root of the
// modsched module, where the machine zoo lives.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module modsched\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no modsched module root above the working directory")
		}
		dir = parent
	}
}

// compileInputs is the input of the corpus and search workloads: the
// loops as looplang text, the only form the program under test sees,
// and intro, the order in which the timed phase first meets them.
type compileInputs struct {
	mach  *machine.Machine
	texts []string
	intro []int32
}

// introOrder interleaves the first compile of each of n loops with
// repeats of loops already seen: each step is a new loop with
// probability introShare, else a uniformly drawn earlier one. Spreading
// the first sightings over several seconds keeps first_p50_ms from
// resting on one short window of a noisy machine.
func introOrder(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	var order []int32
	for seen := 0; seen < n; {
		if seen == 0 || rng.Float64() < introShare {
			order = append(order, int32(seen))
			seen++
		} else {
			order = append(order, int32(rng.Intn(seen)))
		}
	}
	return order
}

// serveInputs is the input of the serve workload. pool holds the hot
// set first, then the fresh loops; stream lists the pool index of every
// request in send order; bodies are the encoded /compile requests.
type serveInputs struct {
	mach   *machine.Machine
	pool   []string
	bodies [][]byte
	hot    int
	stream []int32
	// qualityPool lists the pool indexes the quality metrics cover: the
	// hot set and the first serveQualityFresh fresh loops of the stream.
	qualityPool []int32
	warmup      [][]byte
}

// render prints loops as looplang text.
func render(loops []*ir.Loop) []string {
	out := make([]string, len(loops))
	for i, l := range loops {
		out[i] = modsched.PrintLoop(l)
	}
	return out
}

// corpusLoops is the corpus workload's loop population.
func corpusLoops(seed int64, m *machine.Machine) ([]*ir.Loop, error) {
	var loops []*ir.Loop
	for d := 0; d < corpusDraws; d++ {
		ls, err := loopgen.Generate(corpusConfig(seed, d), m)
		if err != nil {
			return nil, err
		}
		loops = append(loops, ls...)
	}
	ks, err := kernels.All(m)
	if err != nil {
		return nil, err
	}
	return append(loops, ks...), nil
}

func makeCorpusInputs(seed int64) (*compileInputs, error) {
	m := machine.Cydra5()
	loops, err := corpusLoops(seed, m)
	if err != nil {
		return nil, err
	}
	return &compileInputs{mach: m, texts: render(loops), intro: introOrder(len(loops), subSeed(seed, "corpus/intro"))}, nil
}

func makeSearchInputs(seed int64, root string) (*compileInputs, error) {
	m, err := machine.LoadMachineFile(filepath.Join(root, searchMachineFile))
	if err != nil {
		return nil, err
	}
	var loops []*ir.Loop
	for d := 0; d < searchDraws; d++ {
		ls, err := loopgen.Generate(searchConfig(seed, d), m)
		if err != nil {
			return nil, err
		}
		loops = append(loops, ls...)
	}
	return &compileInputs{mach: m, texts: render(loops), intro: introOrder(len(loops), subSeed(seed, "search/intro"))}, nil
}

// structureSet deduplicates loops by their compile-cache key, so that a
// loop the stream treats as new is new to the server's cache as well:
// loopgen emits structurally identical loops under different names.
type structureSet struct {
	m    *machine.Machine
	opts core.Options
	seen map[string]bool
}

func newStructureSet(m *machine.Machine) *structureSet {
	return &structureSet{m: m, opts: core.DefaultOptions(), seen: map[string]bool{}}
}

// add reports whether l is structurally new, and records it.
func (s *structureSet) add(l *ir.Loop) bool {
	k := schedcache.Key(l, s.m, s.opts)
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	return true
}

// distinct keeps the loops of ls that are structurally new to set, in
// order, at most limit of them (all when limit <= 0).
func distinct(set *structureSet, ls []*ir.Loop, limit int) []*ir.Loop {
	var out []*ir.Loop
	for _, l := range ls {
		if limit > 0 && len(out) == limit {
			break
		}
		if set.add(l) {
			out = append(out, l)
		}
	}
	return out
}

// stratifiedSample draws n of the loops as a systematic sample in
// op-count order from a seeded start, then shuffles it. Served cost is
// dominated by the few largest loops (codegen grows much faster than
// linearly in loop size); a sample that keeps the population's size
// profile keeps their share the same from seed to seed.
func stratifiedSample(ls []*ir.Loop, n int, seed int64) ([]*ir.Loop, error) {
	if len(ls) < n {
		return nil, fmt.Errorf("population holds only %d distinct loops, want %d", len(ls), n)
	}
	sorted := slices.Clone(ls)
	slices.SortStableFunc(sorted, func(a, b *ir.Loop) int { return a.NumRealOps() - b.NumRealOps() })
	rng := rand.New(rand.NewSource(seed))
	step := float64(len(sorted)) / float64(n)
	start := rng.Float64() * step
	out := make([]*ir.Loop, n)
	for j := range out {
		out[j] = sorted[int(start+float64(j)*step)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func encodeRequest(src string) []byte {
	body, err := json.Marshal(&server.CompileRequest{Source: src})
	if err != nil {
		panic(err) // a struct of strings always encodes
	}
	return body
}

func makeServeInputs(seed int64, seconds float64) (*serveInputs, error) {
	m := machine.Cydra5()
	corpus, err := corpusLoops(seed, m)
	if err != nil {
		return nil, err
	}
	set := newStructureSet(m)
	hot, err := stratifiedSample(distinct(set, corpus, 0), serveHotLoops, subSeed(seed, "hot"))
	if err != nil {
		return nil, err
	}

	// The fresh pool is large; it is rendered as it streams out of the
	// generator so that no more than one of its loops is held as IR.
	var fresh []string
	nFresh := int(seconds*serveFreshPerSecond) + serveQualityFresh
	err = loopgen.Stream(freshConfig(seed, nFresh), m, func(_ int, l *ir.Loop) error {
		if set.add(l) {
			fresh = append(fresh, modsched.PrintLoop(l))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	warmAll, err := loopgen.Generate(warmupConfig(seed), m)
	if err != nil {
		return nil, err
	}
	warm := distinct(set, warmAll, serveWarmup)

	in := &serveInputs{mach: m, hot: len(hot)}
	in.pool = append(render(hot), fresh...)
	in.bodies = make([][]byte, len(in.pool))
	for i, src := range in.pool {
		in.bodies[i] = encodeRequest(src)
	}
	for _, src := range render(warm) {
		in.warmup = append(in.warmup, encodeRequest(src))
	}

	// The stream ends when the fresh pool runs out, which a run of the
	// configured length does not reach (see serveFreshPerSecond).
	srng := rand.New(rand.NewSource(subSeed(seed, "stream")))
	next := len(hot)
	for next < len(in.pool) {
		if srng.Float64() < serveHotShare {
			in.stream = append(in.stream, int32(srng.Intn(len(hot))))
		} else {
			in.stream = append(in.stream, int32(next))
			next++
		}
	}
	for i := 0; i < len(hot); i++ {
		in.qualityPool = append(in.qualityPool, int32(i))
	}
	for i := len(hot); i < len(hot)+serveQualityFresh && i < len(in.pool); i++ {
		in.qualityPool = append(in.qualityPool, int32(i))
	}
	return in, nil
}
