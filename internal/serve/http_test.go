package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
)

// padded returns head + spaces + tail, n bytes in all. The spaces sit inside
// the JSON value, so the decoder must read every byte to finish it.
func padded(head, tail string, n int) string {
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// TestHTTPBodyBound checks that both POST endpoints read at most
// maxBodyBytes: a body at the bound or just under it is served, one byte
// more is answered 413 without being acted on.
func TestHTTPBodyBound(t *testing.T) {
	d := datasets.MustLoad("cora")
	m := testModel(d, nn.KindGCN, 31)
	svc := newTestService(t, d, Config{Shards: 1})
	if err := svc.SwapModel(m); err != nil {
		t.Fatal(err)
	}
	loads := 0
	mux := http.NewServeMux()
	Mount(mux, svc, func(string) (*nn.Model, error) {
		loads++
		return m, nil
	})
	cases := []struct {
		path, head, tail string
	}{
		{"/v1/predict", `{"vertices":[0`, `]}`},
		{"/v1/swap", `{"model":"m"`, `}`},
	}
	for _, c := range cases {
		for _, size := range []int{maxBodyBytes - 1, maxBodyBytes, maxBodyBytes + 1} {
			t.Run(fmt.Sprintf("%s/%d", strings.TrimPrefix(c.path, "/v1/"), size), func(t *testing.T) {
				want := http.StatusOK
				if size > maxBodyBytes {
					want = http.StatusRequestEntityTooLarge
				}
				before := loads
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(padded(c.head, c.tail, size))))
				if rec.Code != want {
					t.Fatalf("%s with a %d-byte body: status %d (%s), want %d", c.path, size, rec.Code, rec.Body, want)
				}
				if c.path == "/v1/swap" && (loads > before) != (want == http.StatusOK) {
					t.Fatalf("%s with a %d-byte body: %d model loads", c.path, size, loads-before)
				}
			})
		}
	}
}
