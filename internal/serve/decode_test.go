package serve_test

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// FuzzDecodePoints feeds arbitrary bytes, as a request body, to
// serve.DecodePoints under the two body shapes its five callers decode — the
// {"points": …} body of a server's /assign and /ingest and of the router's
// two, and the shard-internal FleetAssignRequest of /fleet/assign — at a
// fuzz-chosen dimension and point cap. It either answers 400 and returns
// false, or writes nothing and returns 1 … cap points, each of the model's
// dimension with every coordinate finite and within MaxCoord; it never
// panics.
func FuzzDecodePoints(f *testing.F) {
	for _, body := range []string{
		`{"points":[[1,2]]}`,
		`{"points":[[1,2],[3,4]],"masks":[1,3],"exact":false}`,
		`{"points":[]}`,
		`{"points":null}`,
		`{"points":[[1,2,3]]}`,
		`{"points":[[1e308,0]]}`,
		`{"points":[[-0,1e-400]]}`,
		`{"points":[[1e400,0]]}`,
		`{"points":[["1",2]]}`,
		`{"points":[[1,2]]}{"points":7}`,
		`[`,
		``,
	} {
		f.Add(byte(1), []byte(body))
	}
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		dim, maxPoints := 1+int(sel%4), 1+int(sel/4%4)
		var plain struct {
			Points [][]float64 `json:"points"`
		}
		var fleet serve.FleetAssignRequest
		for _, shape := range []struct {
			body any
			pts  *[][]float64
		}{{&plain, &plain.Points}, {&fleet, &fleet.Points}} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/assign", bytes.NewReader(body))
			if !serve.DecodePoints(rec, req, shape.body, shape.pts, dim, maxPoints) {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("refused %q with status %d, want 400", body, rec.Code)
				}
				continue
			}
			if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
				t.Fatalf("accepted %q but replied %d %q", body, rec.Code, rec.Body)
			}
			pts := *shape.pts
			if len(pts) == 0 || len(pts) > maxPoints {
				t.Fatalf("accepted %q: %d points, cap %d", body, len(pts), maxPoints)
			}
			for i, p := range pts {
				if len(p) != dim {
					t.Fatalf("accepted %q: point %d has dim %d, model %d", body, i, len(p), dim)
				}
				for _, x := range p {
					if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > serve.MaxCoord(dim) {
						t.Fatalf("accepted %q: point %d has coordinate %v", body, i, x)
					}
				}
			}
		}
	})
}
