package jobs

// The multi-tenant HTTP face of the queue, mounted at /api/v1/jobs (and
// the legacy /jobs alias) by the embedded observability server:
//
//	POST /jobs              submit a spec (202; 400 invalid, 429 over quota)
//	GET  /jobs              list jobs (?tenant= filters)
//	GET  /jobs/{id}         one job's status document
//	GET  /jobs/{id}/result  a finished job's rendered sections (409 until done)
//	GET  /jobs/{id}/events  live state/progress stream (SSE)
//	GET  /jobs/{id}/flight  a failed job's flight-recorder dump (404 until failed)
//	POST /jobs/{id}/cancel  request cancellation
//
// The tenant is the X-Coevo-Tenant header (or ?tenant=), defaulting to
// "anonymous" — identification for fairness and quotas, not
// authentication.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"coevo/internal/obs"
)

// maxSpecBytes bounds a submission body; ingest payloads carry whole git
// logs and DDL histories, so the limit is generous but finite.
const maxSpecBytes = 8 << 20

// Handler serves the queue's HTTP API.
func Handler(q *Queue) http.Handler {
	return &handler{q: q}
}

type handler struct {
	q *Queue
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/jobs"), "/")
	if rest == "" {
		switch r.Method {
		case http.MethodPost:
			h.submit(w, r)
		case http.MethodGet:
			writeJSON(w, http.StatusOK, h.q.List(r.URL.Query().Get("tenant")))
		default:
			methodNotAllowed(w, "GET, POST")
		}
		return
	}
	id, action, _ := strings.Cut(rest, "/")
	switch action {
	case "":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		j, err := h.q.Get(id)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, j)
	case "result":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		res, err := h.q.Result(id)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	case "events":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		h.events(w, r, id)
	case "flight":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		d, err := h.q.Flight(id)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, d)
	case "cancel":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, "POST")
			return
		}
		j, err := h.q.Cancel(id)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, j)
	default:
		http.NotFound(w, r)
	}
}

// submit decodes a spec, resolves the tenant and enqueues the job.
func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("jobs: malformed spec: %v", err), http.StatusBadRequest)
		return
	}
	// The request context carries the obs.TraceContext the server's
	// middleware injected, so the job inherits the request's trace id.
	j, err := h.q.Submit(r.Context(), TenantFromRequest(r), spec)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Location", obs.APIPrefix+"/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

// TenantFromRequest resolves the request's tenant identity: the
// X-Coevo-Tenant header, then ?tenant=, else "" (read as anonymous).
// The submit path and the server's access-log/RED middleware share it,
// so every per-tenant signal agrees on who a request belongs to.
func TenantFromRequest(r *http.Request) string {
	if tenant := r.Header.Get("X-Coevo-Tenant"); tenant != "" {
		return tenant
	}
	return r.URL.Query().Get("tenant")
}

// events streams a job's state transitions and progress ticks as SSE
// until the job reaches a terminal state or the client disconnects.
func (h *handler) events(w http.ResponseWriter, r *http.Request, id string) {
	ch, stop, err := h.q.Watch(id)
	if err != nil {
		httpError(w, err)
		return
	}
	defer stop()
	events := make(chan obs.SSEEvent, watcherBuffer)
	go func() {
		defer close(events)
		for e := range ch {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			// The watcher channel is drop-on-full upstream; mirror that here
			// so a stalled client cannot back the converter up either.
			select {
			case events <- obs.SSEEvent{Event: e.Type, Data: data}:
			default:
			}
		}
	}()
	preamble := fmt.Sprintf(": coevo job %s events\nretry: 1000\n\n", id)
	obs.WriteSSE(w, r, preamble, events) //nolint:errcheck // client saw the 500; nothing else to do
}

// httpError maps a queue error onto its status code.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalid):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoFlight):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotDone):
		code = http.StatusConflict
	case errors.Is(err, ErrQuota):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "5")
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

// writeJSON renders v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-body; nothing to repair
}

// methodNotAllowed rejects a request with the allowed verbs advertised.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
}
