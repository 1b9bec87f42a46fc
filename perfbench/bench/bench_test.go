package bench

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/serve"
	"kbharvest/internal/shardkb"
	"kbharvest/internal/synth"
)

// kb is the KB every workload serves at seed 42, built once.
var kb *core.Store

const kbSeed = 42

func TestMain(m *testing.M) {
	opt := pipeline.DefaultOptions()
	opt.World = synth.DefaultConfig().Scaled(Scale)
	opt.Seed = kbSeed
	res, err := pipeline.Run(context.Background(), opt)
	if err != nil {
		panic(err)
	}
	kb = res.KB
	os.Exit(m.Run())
}

func mixes(t *testing.T, seed int64) []*Mix {
	t.Helper()
	join, err := JoinMix(kb, seed)
	if err != nil {
		t.Fatal(err)
	}
	return []*Mix{LookupMix(kb, seed), join}
}

func TestSameSeedSameSequence(t *testing.T) {
	a, b, c := mixes(t, 7), mixes(t, 7), mixes(t, 8)
	for i := range a {
		if !sameRequests(a[i], b[i]) {
			t.Errorf("%s: seed 7 gave two different request sequences", a[i].Name)
		}
		if sameRequests(a[i], c[i]) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", a[i].Name)
		}
	}
}

func sameRequests(a, b *Mix) bool {
	for i := int64(0); i < int64(len(a.Seq)); i++ {
		if strings.Join(a.Queries[a.At(i)].Patterns, ".") != strings.Join(b.Queries[b.At(i)].Patterns, ".") {
			return false
		}
	}
	return true
}

// kbserve's default result cache holds -cache-shards 16 x
// -cache-per-shard 256 queries.
const defaultCacheEntries = 16 * 256

func TestLookupKeysExceedEachShardCache(t *testing.T) {
	m := LookupMix(kb, 1)
	perShard := make([]int, Shards)
	for _, q := range m.Queries {
		ps, err := q.Parse()
		if err != nil {
			t.Fatal(err)
		}
		if s, pinned := shardkb.PatternShard(ps[0], Shards); pinned {
			perShard[s]++
			continue
		}
		for s := range perShard { // scattered: every shard sees the key
			perShard[s]++
		}
	}
	for s, n := range perShard {
		if n <= defaultCacheEntries {
			t.Errorf("shard %d: %d distinct lookup keys, want more than its %d cache entries", s, n, defaultCacheEntries)
		}
	}
}

func TestLookupSubjectShare(t *testing.T) {
	m := LookupMix(kb, 1)
	pinned := 0
	for i := range m.Seq {
		if !strings.HasPrefix(m.Queries[m.At(int64(i))].Patterns[0], "?s ") {
			pinned++
		}
	}
	if got := float64(pinned) / float64(len(m.Seq)); math.Abs(got-subjectShare) > 0.01 {
		t.Errorf("share of subject-keyed lookups = %.3f, want %.2f", got, subjectShare)
	}
}

// TestJoinAnchorsFollowZipf checks the s = 1 skew per shape: JoinMix lays
// each shape's anchors out in rank order, so the k-th query of a shape
// should be drawn with probability 1/((k+1) H_n).
func TestJoinAnchorsFollowZipf(t *testing.T) {
	m, err := JoinMix(kb, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(m.Queries))
	for _, qi := range m.Seq {
		counts[qi]++
	}
	base := 0
	for shape := range joinShapes {
		end := base
		for end < len(m.Queries) && sameShape(m.Queries[end], m.Queries[base]) {
			end++
		}
		n, draws := end-base, 0
		for _, c := range counts[base:end] {
			draws += c
		}
		if got := float64(draws) / float64(len(m.Seq)); math.Abs(got-1/float64(len(joinShapes))) > 0.01 {
			t.Errorf("shape %d drawn %.3f of the time, want 1/%d", shape+1, got, len(joinShapes))
		}
		h := func(k int) float64 {
			s := 0.0
			for j := 1; j <= k; j++ {
				s += 1 / float64(j)
			}
			return s
		}
		top1 := float64(counts[base]) / float64(draws)
		if want := 1 / h(n); math.Abs(top1-want) > 0.05*want {
			t.Errorf("shape %d: hottest anchor drawn %.4f of the time, want %.4f", shape+1, top1, want)
		}
		top10 := 0
		for _, c := range counts[base : base+10] {
			top10 += c
		}
		if got, want := float64(top10)/float64(draws), h(10)/h(n); math.Abs(got-want) > 0.03*want {
			t.Errorf("shape %d: top 10 anchors drawn %.4f of the time, want %.4f", shape+1, got, want)
		}
		base = end
	}
	if base != len(m.Queries) {
		t.Errorf("found %d queries in %d shapes, mix has %d", base, len(joinShapes), len(m.Queries))
	}
}

// sameShape tells the join shapes apart: they differ in where the anchor
// sits in the first pattern, or in their pattern count.
func sameShape(a, b Query) bool {
	return len(a.Patterns) == len(b.Patterns) &&
		strings.HasPrefix(a.Patterns[0], "?") == strings.HasPrefix(b.Patterns[0], "?")
}

func TestEveryQueryHasAnAnswer(t *testing.T) {
	chain, err := ChainJoin(kb, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := append(mixes(t, 1), &Mix{Name: "chain", Queries: []Query{chain}, Seq: []int32{0}})
	for _, m := range all {
		want, err := Expect(context.Background(), kb, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		empty := 0
		for _, a := range want {
			if a.Rows == 0 {
				empty++
			}
		}
		// Lookup keys come from facts, so each has at least one row.
		if m.Name == Lookup && empty > 0 {
			t.Errorf("lookup: %d of %d queries have no rows", empty, len(want))
		}
		t.Logf("%s: %d distinct queries, %d with no rows", m.Name, len(want), empty)
	}
}

func TestCheckRejectsBadReplies(t *testing.T) {
	ok := Answer{Rows: 1, Digest: digest([]string{rowKey(map[string]string{"o": "<kb:x>"})})}
	good := `{"vars":["o"],"rows":[{"o":"<kb:x>"}],"count":1,"took_us":5}`
	if took, err := Check(200, []byte(good), ok); err != nil || took != 5 {
		t.Fatalf("good reply: took %d, err %v", took, err)
	}
	for name, c := range map[string]struct {
		status int
		body   string
	}{
		"status":  {504, `{"error":"deadline"}`},
		"partial": {200, `{"vars":["o"],"rows":[{"o":"<kb:x>"}],"count":1,"partial":true}`},
		"row":     {200, `{"vars":["o"],"rows":[{"o":"<kb:y>"}],"count":1}`},
		"missing": {200, `{"count":0}`},
		"count":   {200, `{"vars":["o"],"rows":[{"o":"<kb:x>"}],"count":2}`},
		"garbage": {200, `{"rows":`},
	} {
		if _, err := Check(c.status, []byte(c.body), ok); err == nil {
			t.Errorf("%s: bad reply accepted", name)
		}
	}
}

// TestWrongExpectedAnswerFails serves the KB over HTTP and shows the
// answer check is live: with the right expected answers nothing fails,
// and with one answer deliberately wrong, exactly the requests for that
// query fail, so the failure share is non-zero.
func TestWrongExpectedAnswerFails(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(kb, serve.Options{}))
	defer srv.Close()
	for _, m := range mixes(t, 5) {
		want, err := Expect(context.Background(), kb, m)
		if err != nil {
			t.Fatal(err)
		}
		run := func(want []Answer) (Tally, map[int]int) {
			c := NewClient(srv.URL, 1, m, want)
			defer c.Close()
			var next atomic.Int64
			failedBy := map[int]int{}
			tally := c.Closed(context.Background(), 1, 200*time.Millisecond, &next, func(qi int, op Op) {
				if op.Err != nil {
					failedBy[qi]++
				}
			})
			return tally, failedBy
		}
		if tally, _ := run(want); tally.Attempted == 0 || tally.Failed != 0 {
			t.Fatalf("%s: %d of %d failed with the right answers: %v", m.Name, tally.Failed, tally.Attempted, tally.FirstErr)
		}
		wrong := append([]Answer(nil), want...)
		bad := m.At(0) // the first request sent
		wrong[bad].Digest++
		tally, failedBy := run(wrong)
		rep := &Report{}
		rep.Count(tally)
		if rep.FailFrac() == 0 {
			t.Fatalf("%s: a wrong expected answer left fail_frac at 0", m.Name)
		}
		for qi := range failedBy {
			if qi != bad {
				t.Errorf("%s: query %d failed, only %d has a wrong expected answer", m.Name, qi, bad)
			}
		}
	}
}
