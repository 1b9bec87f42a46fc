// Package bench holds what both runs of the repository benchmark share:
// the seeded query workloads, the expected answers every reply is checked
// against, the HTTP load generator, and the child processes built from
// cmd/kbbuild, cmd/kbserve and cmd/kbrouter.
//
// The untraced run (cmd/e2e) reaches the system only through those
// binaries' command lines and the /query HTTP protocol; in-process it
// uses core (snapshot load, reference answers), synth and pipeline
// (ground-truth scoring). The traced run (cmd/traced) also calls into the
// layers' public functions directly.
package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
)

// Query is one conjunctive query, one "s p o" line per pattern in the
// syntax /query parses.
type Query struct {
	Patterns []string
}

// Parse parses the query's patterns.
func (q Query) Parse() ([]core.Pattern, error) {
	ps := make([]core.Pattern, len(q.Patterns))
	for i, line := range q.Patterns {
		p, err := core.ParsePattern(line)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// Mix is a workload's query traffic: the distinct queries it can send,
// and the seeded order in which it sends them.
type Mix struct {
	Name    string
	Queries []Query
	Seq     []int32 // indexes into Queries
}

// seqLen is long enough that no run wraps the sequence at the rates this
// system reaches; At wraps anyway so a faster commit cannot run out.
const seqLen = 1 << 18

// At returns the index of the query sent as request i.
func (m *Mix) At(i int64) int { return int(m.Seq[i%int64(len(m.Seq))]) }

// Workload names.
const (
	Build  = "build"
	Lookup = "lookup"
	Join   = "join"
)

// NewMix returns the query traffic of a serving workload over the KB in st.
func NewMix(workload string, st *core.Store, seed int64) (*Mix, error) {
	switch workload {
	case Lookup:
		return LookupMix(st, seed), nil
	case Join:
		return JoinMix(st, seed)
	}
	return nil, fmt.Errorf("bench: %q is not a serving workload", workload)
}

// labelPredicates name free-text labels. Lookups keyed on a label's text
// are left out: a service resolves names through NED, not through the
// KB's object index.
var labelPredicates = map[string]bool{"rdfs:label": true, "skos:altLabel": true}

// subjectShare is the share of lookups keyed on subject and predicate.
// Those pin to the one shard their subject hashes to; the rest are keyed
// on predicate and object and scatter to every shard.
const subjectShare = 0.8

// LookupMix draws single-pattern lookups uniformly from every (s p ?o)
// key of the KB (subjectShare of requests) and from every non-label
// (?s p o) key (the rest).
func LookupMix(st *core.Store, seed int64) *Mix {
	sp := map[string]bool{}
	po := map[string]bool{}
	for _, t := range st.All() {
		sp[t.S.String()+" "+t.P.String()+" ?o"] = true
		if !labelPredicates[t.P.Value] {
			po["?s "+t.P.String()+" "+t.O.String()] = true
		}
	}
	spKeys, poKeys := sortedKeys(sp), sortedKeys(po)
	m := &Mix{Name: Lookup}
	for _, k := range append(spKeys, poKeys...) {
		m.Queries = append(m.Queries, Query{Patterns: []string{k}})
	}
	rng := rand.New(rand.NewSource(seed))
	m.Seq = make([]int32, seqLen)
	for i := range m.Seq {
		if rng.Float64() < subjectShare {
			m.Seq[i] = int32(rng.Intn(len(spKeys)))
		} else {
			m.Seq[i] = int32(len(spKeys) + rng.Intn(len(poKeys)))
		}
	}
	return m
}

// joinShape is one of the E9 join shapes, anchored at one entity.
type joinShape struct {
	// The candidate anchors are the distinct subjects (anchorSubject) or
	// objects of anchorPred.
	anchorPred    string
	anchorSubject bool
	patterns      func(anchor string) []string
}

// anchors lists the shape's candidate anchors, most facts of anchorPred
// first: a well-connected entity is a popular one, so it gets the hottest
// Zipf ranks. Ranking by degree keeps the mix's cost alike from seed to
// seed; the seed only breaks ties between anchors of equal degree.
func (sh joinShape) anchors(st *core.Store, rng *rand.Rand) ([]string, error) {
	degree := map[string]int{}
	st.MatchFunc(rdf.Triple{P: rdf.NewIRI(sh.anchorPred)}, func(_ core.FactID, t rdf.Triple) bool {
		if sh.anchorSubject {
			degree[t.S.String()]++
		} else {
			degree[t.O.String()]++
		}
		return true
	})
	if len(degree) == 0 {
		return nil, fmt.Errorf("bench: no %s facts to anchor a join on", sh.anchorPred)
	}
	anchors := make([]string, 0, len(degree))
	for a := range degree {
		anchors = append(anchors, a)
	}
	sort.Strings(anchors)
	rng.Shuffle(len(anchors), func(a, b int) { anchors[a], anchors[b] = anchors[b], anchors[a] })
	sort.SliceStable(anchors, func(a, b int) bool { return degree[anchors[a]] > degree[anchors[b]] })
	return anchors, nil
}

var joinShapes = []joinShape{
	{"kb:worksAt", false, func(c string) []string {
		return []string{"?p <kb:worksAt> " + c, "?p <kb:bornIn> ?city"}
	}},
	{"kb:worksAt", true, func(p string) []string {
		return []string{p + " <kb:worksAt> ?c", "?c <kb:locatedIn> ?city"}
	}},
}

// chainShape is the third E9 shape. It stays out of the timed join mix:
// kbrouter orders patterns by estimate alone, so it evaluates
// "?c kb:locatedIn ?city" before "?p kb:worksAt ?c", joins it with the
// anchor's graduates as a cross product, and then sends one RPC per
// (graduate, company) pair — thousands of RPCs and seconds per query,
// past kbrouter's 5 s timeout for the larger universities. The traced run
// counts the RPCs of one such query instead (ChainJoin).
var chainShape = joinShape{"kb:graduatedFrom", false, func(u string) []string {
	return []string{"?p <kb:graduatedFrom> " + u, "?p <kb:worksAt> ?c", "?c <kb:locatedIn> ?city"}
}}

// JoinMix draws anchored joins: a uniformly chosen shape, anchored at an
// entity drawn Zipf-skewed (s = 1) over that shape's ranked anchors, so
// hot anchors repeat and the shard caches stay warm.
func JoinMix(st *core.Store, seed int64) (*Mix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &Mix{Name: Join}
	base := make([]int, len(joinShapes))
	ranks := make([]zipf, len(joinShapes))
	for i, sh := range joinShapes {
		anchors, err := sh.anchors(st, rng)
		if err != nil {
			return nil, err
		}
		base[i] = len(m.Queries)
		ranks[i] = newZipf(len(anchors))
		for _, a := range anchors {
			m.Queries = append(m.Queries, Query{Patterns: sh.patterns(a)})
		}
	}
	m.Seq = make([]int32, seqLen)
	for i := range m.Seq {
		sh := rng.Intn(len(joinShapes))
		m.Seq[i] = int32(base[sh] + ranks[sh].draw(rng))
	}
	return m, nil
}

// ChainJoin returns the chain-shape query anchored at a university of
// median size: a larger one can take past kbrouter's timeout.
func ChainJoin(st *core.Store, seed int64) (Query, error) {
	anchors, err := chainShape.anchors(st, rand.New(rand.NewSource(seed)))
	if err != nil {
		return Query{}, err
	}
	return Query{Patterns: chainShape.patterns(anchors[len(anchors)/2])}, nil
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1), the s = 1
// law, which math/rand's Zipf (s > 1 only) cannot give.
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / float64(k+1)
		z.cdf[k] = sum
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64()*z.cdf[len(z.cdf)-1])
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
