package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"kbharvest/internal/core"
)

// Answer is the expected reply to one query: its row count and a digest
// of its rows, sorted so that the order shards reply in does not matter.
type Answer struct {
	Rows   int
	Digest uint64
}

// Expect computes every distinct query's answer in-process with the
// reference engine over the merged snapshot.
func Expect(ctx context.Context, st *core.Store, m *Mix) ([]Answer, error) {
	want := make([]Answer, len(m.Queries))
	for i, q := range m.Queries {
		ps, err := q.Parse()
		if err != nil {
			return nil, fmt.Errorf("bench: query %d: %w", i, err)
		}
		var rows []string
		err = st.QueryFunc(ctx, ps, 0, func(b core.Binding) bool {
			row := make(map[string]string, len(b))
			for v, t := range b {
				row[string(v)] = t.String()
			}
			rows = append(rows, rowKey(row))
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("bench: query %q: %w", q.Patterns, err)
		}
		want[i] = Answer{Rows: len(rows), Digest: digest(rows)}
	}
	return want, nil
}

// reply is the part of a /query reply the answer check reads.
type reply struct {
	Rows    []map[string]string `json:"rows"`
	Count   int                 `json:"count"`
	Partial bool                `json:"partial"`
	TookUS  int64               `json:"took_us"`
}

// Check verifies a /query reply against the expected answer: status 200,
// not partial, and the same rows. It returns the reply's took_us.
func Check(status int, body []byte, want Answer) (int64, error) {
	if status != 200 {
		return 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("bad reply: %w", err)
	}
	if r.Partial {
		return r.TookUS, fmt.Errorf("partial answer")
	}
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = rowKey(row)
	}
	if r.Count != len(rows) || len(rows) != want.Rows || digest(rows) != want.Digest {
		return r.TookUS, fmt.Errorf("wrong answer: %d rows (count %d), want %d rows", len(rows), r.Count, want.Rows)
	}
	return r.TookUS, nil
}

// rowKey renders one row canonically: var=term pairs in variable order.
func rowKey(row map[string]string) string {
	vars := make([]string, 0, len(row))
	for v := range row {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(row[v])
		b.WriteByte('\x1f')
	}
	return b.String()
}

// digest hashes a multiset of rows; it sorts rows in place.
func digest(rows []string) uint64 {
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\x1e'})
	}
	return h.Sum64()
}
