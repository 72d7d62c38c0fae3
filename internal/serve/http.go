package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"ecgraph/internal/nn"
)

// maxBodyBytes bounds a request body: 1 MiB holds ~100k vertex ids.
const maxBodyBytes = 1 << 20

// ModelLoader loads a model file for the /v1/swap endpoint. The serving
// binary wires in the checkpoint-aware loader (core.LoadModelFile); a nil
// loader disables HTTP-initiated swaps.
type ModelLoader func(path string) (*nn.Model, error)

// Mount attaches the serving API to an HTTP mux — by convention the
// internal/obs server's, so one listener carries /metrics, /debug/pprof
// and the front door:
//
//	POST /v1/predict {"vertices":[...]}  → per-vertex classes (add ?logits=1 for raw logits)
//	GET  /v1/healthz                     → readiness + active version
//	POST /v1/swap    {"model":"path"}    → hot-swap to a model/checkpoint file
func Mount(mux *http.ServeMux, svc *Service, loader ModelLoader) {
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) { handlePredict(svc, w, r) })
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(svc, w, r) })
	mux.HandleFunc("/v1/swap", func(w http.ResponseWriter, r *http.Request) { handleSwap(svc, loader, w, r) })
}

// PredictRequest is the /v1/predict body.
type PredictRequest struct {
	Vertices []int `json:"vertices"`
}

// PredictResult is one vertex's answer on the wire.
type PredictResult struct {
	Vertex int       `json:"vertex"`
	Class  int       `json:"class"`
	OK     bool      `json:"ok"`
	Err    string    `json:"error,omitempty"`
	Logits []float32 `json:"logits,omitempty"`
}

// PredictResponse is the /v1/predict reply.
type PredictResponse struct {
	Version uint32          `json:"version"`
	Results []PredictResult `json:"results"`
}

func handlePredict(svc *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req PredictRequest
	if status, err := readJSON(w, r, &req); err != nil {
		httpError(w, status, "bad body: "+err.Error())
		return
	}
	if len(req.Vertices) == 0 {
		httpError(w, http.StatusBadRequest, "no vertices")
		return
	}
	results, err := svc.Predict(req.Vertices)
	if err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	wantLogits := r.URL.Query().Get("logits") == "1"
	resp := PredictResponse{Results: make([]PredictResult, len(results))}
	for i, res := range results {
		resp.Version = res.Version
		out := PredictResult{Vertex: res.Vertex, Class: res.Class, OK: res.OK, Err: res.Err}
		if wantLogits && res.OK {
			out.Logits = res.Logits
		}
		resp.Results[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleHealthz(svc *Service, w http.ResponseWriter, _ *http.Request) {
	v := svc.ActiveVersion()
	status := http.StatusOK
	state := "serving"
	if v == 0 {
		status = http.StatusServiceUnavailable
		state = "waiting_for_model"
	}
	writeJSON(w, status, map[string]any{
		"status":      state,
		"version":     v,
		"shards":      svc.NumShards(),
		"queue_depth": svc.QueueDepth(),
	})
}

func handleSwap(svc *Service, loader ModelLoader, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if loader == nil {
		httpError(w, http.StatusNotImplemented, "swap loader not configured")
		return
	}
	var req struct {
		Model string `json:"model"`
	}
	if status, err := readJSON(w, r, &req); err != nil || req.Model == "" {
		httpError(w, status, "body must be {\"model\":\"path\"}")
		return
	}
	m, err := loader(req.Model)
	if err != nil {
		httpError(w, http.StatusBadRequest, "load model: "+err.Error())
		return
	}
	if err := svc.SwapModel(m); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"version": svc.ActiveVersion()})
}

// readJSON decodes r's body into v, reading at most maxBodyBytes of it. It
// returns the status that rejects the body: 413 past the bound, else 400.
func readJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
