package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeJobSpec checks the submission decoder node and coordinator
// share: it never panics, an accepted spec survives a json.Marshal round
// trip with its engine ID, and an accepted spec followed by anything but
// JSON whitespace is rejected.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, tc := range badSpecs {
		f.Add(tc.body, "")
	}
	// The specs the CI serve and fabric smoke jobs submit.
	for _, spec := range []string{
		goodSpec,
		`{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":50000,"seed":42}}`,
		`{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":3,"adjudicator":"2oo3","reps":20000,"seed":42}}`,
		`{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":3,"arch":"majority","reps":20000,"seed":42}}`,
		`{"kind":"rare-event","rareEvent":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":20000,"seed":42,"sparse":true}}`,
		`{"kind":"analytic","analytic":{"model":{"scenario":"safety-grade","scenarioSeed":1},"k":2,"confidence":0.99}}`,
	} {
		f.Add(spec, "")
		f.Add(spec, "\r\n\t ")
		f.Add(spec, ` {"kind":"bogus"}`)
		f.Add(spec, "}")
	}
	f.Fuzz(func(t *testing.T, body, trailer string) {
		job, id, err := DecodeJobSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		enc, err := json.Marshal(job)
		if err != nil {
			t.Fatalf("accepted spec %q does not encode: %v", body, err)
		}
		_, again, err := DecodeJobSpec(bytes.NewReader(enc))
		if err != nil || again != id {
			t.Fatalf("re-encoded spec %s: ID %q, err %v; want ID %q", enc, again, err, id)
		}
		_, tid, err := DecodeJobSpec(strings.NewReader(body + trailer))
		if strings.Trim(trailer, " \t\r\n") != "" {
			if err == nil {
				t.Fatalf("accepted spec %q followed by %q", body, trailer)
			}
		} else if err != nil || tid != id {
			t.Fatalf("spec %q followed by whitespace: ID %q, err %v; want ID %q", body, tid, err, id)
		}
	})
}
