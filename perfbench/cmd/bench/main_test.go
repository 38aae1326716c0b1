package main

import (
	"net/http"
	"strings"
	"testing"

	"debugtuner/perfbench/gen"
)

func TestDigestCatchesOneByte(t *testing.T) {
	out := []byte("==== table1 ====\nrow 1\n")
	e := &env{digests: map[string]string{"tables": digest(out)}}
	if err := e.checkDigest("tables", out); err != nil {
		t.Fatalf("unchanged output rejected: %v", err)
	}
	for i := range out {
		changed := append([]byte(nil), out...)
		changed[i] ^= 1
		if e.checkDigest("tables", changed) == nil {
			t.Fatalf("flipping a bit of byte %d passed the digest check", i)
		}
	}
	if e.checkDigest("debugify", out) == nil {
		t.Error("a key with no committed digest passed")
	}
}

func TestCheckEnvelope(t *testing.T) {
	rq := gen.Requests(1, 1)[0]
	good := `{"v":1,"kind":"tune","tune":{"profile":"` + rq.Profile + `","level":"` + rq.Level +
		`","subjects":["` + rq.Units[0].Name + `"],"ranking":[{"rank":1}]}}`
	if err := checkEnvelope(http.StatusOK, []byte(good), rq); err != nil {
		t.Fatalf("good envelope rejected: %v", err)
	}
	bad := map[string]string{
		"quarantine": strings.Replace(good, `"ranking"`, `"quarantined_cells":2,"ranking"`, 1),
		"wrong kind": strings.Replace(good, `"kind":"tune"`, `"kind":"pareto"`, 1),
		"version":    strings.Replace(good, `"v":1`, `"v":2`, 1),
		"malformed":  good[:len(good)-1],
		"error":      `{"v":1,"kind":"error","error":{"code":"internal","msg":"x"}}`,
	}
	for name, body := range bad {
		if checkEnvelope(http.StatusOK, []byte(body), rq) == nil {
			t.Errorf("%s envelope accepted", name)
		}
	}
	if checkEnvelope(http.StatusServiceUnavailable, []byte(good), rq) == nil {
		t.Error("non-200 status accepted")
	}
}
