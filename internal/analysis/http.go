// HTTP surface of the trace-ingest service. Every failure is a typed
// JSON envelope {"code","message","expect"} so clients branch on stable
// machine codes, not status text; sequencing errors carry the next
// expected chunk number, which is the whole resume protocol.
//
//	POST   /v1/analyze/{session}          one-shot: trace body -> result
//	POST   /v1/sessions                   create (JSON spec) -> 201 status
//	PUT    /v1/sessions/{id}/chunks/{seq} ordered chunk -> 204
//	POST   /v1/sessions/{id}/finish       close stream -> 200 result
//	GET    /v1/sessions/{id}              status (resume point)
//	DELETE /v1/sessions/{id}              purge -> 204
package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"autocheck/internal/admission"
	"autocheck/internal/core"
	"autocheck/internal/faultinject"
	"autocheck/internal/wire"
)

// Mount registers the service's routes on mux. wrap, when non-nil,
// decorates each handler with the embedding server's per-route
// telemetry (server.route); standalone users pass nil.
func (s *Service) Mount(mux *http.ServeMux, wrap func(name string, h http.HandlerFunc) http.HandlerFunc) {
	if wrap == nil {
		wrap = func(_ string, h http.HandlerFunc) http.HandlerFunc { return h }
	}
	mux.HandleFunc("POST /v1/analyze/{session}", wrap("analyze", s.handleOneShot))
	mux.HandleFunc("POST /v1/sessions", wrap("session_create", s.handleCreate))
	mux.HandleFunc("PUT /v1/sessions/{id}/chunks/{seq}", wrap("session_chunk", s.handleChunk))
	mux.HandleFunc("POST /v1/sessions/{id}/finish", wrap("session_finish", s.handleFinish))
	mux.HandleFunc("GET /v1/sessions/{id}", wrap("session_status", s.handleStatus))
	mux.HandleFunc("DELETE /v1/sessions/{id}", wrap("session_delete", s.handleDelete))
}

// writeError renders err as the typed envelope. Injected faults mirror
// the server's request failpoint semantics: drop aborts the connection
// without a response, error becomes an immediately-retryable 503.
func writeError(w http.ResponseWriter, err error) {
	var ae *Error
	if !errors.As(err, &ae) {
		if a, ok := faultinject.ActionOf(err); ok {
			if a == faultinject.ActionDrop {
				panic(http.ErrAbortHandler)
			}
			w.Header().Set("Retry-After", "0")
			ae = &Error{Status: http.StatusServiceUnavailable, Code: CodeUnavailable,
				Message: fmt.Sprintf("injected unavailability: %v", err)}
		} else {
			ae = &Error{Status: http.StatusServiceUnavailable, Code: CodeUnavailable,
				Message: err.Error()}
		}
	}
	if (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		if ae.RetryAfter > 0 {
			// The admission-computed hint (queue drain, token refill).
			w.Header().Set("Retry-After", admission.FormatRetryAfter(ae.RetryAfter))
		} else {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	json.NewEncoder(w).Encode(ae)
}

// readBody reads a bounded upload, answering the typed error itself.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := wire.ReadUpload(w, r, DefaultMaxChunkBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeTooLarge,
				Message: fmt.Sprintf("upload exceeds %d bytes", mbe.Limit)})
		} else {
			writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
				Message: fmt.Sprintf("reading upload: %v", err)})
		}
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeResult(w http.ResponseWriter, res *core.Result) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeResult(res))
}

// specFromQuery parses ?func=F&start=N&end=M[&globals=0].
func specFromQuery(r *http.Request) (core.LoopSpec, bool, *Error) {
	q := r.URL.Query()
	spec := core.LoopSpec{Function: q.Get("func")}
	var err error
	if spec.StartLine, err = strconv.Atoi(q.Get("start")); err != nil {
		return spec, false, &Error{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("start line: %v", err)}
	}
	if spec.EndLine, err = strconv.Atoi(q.Get("end")); err != nil {
		return spec, false, &Error{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("end line: %v", err)}
	}
	includeGlobals := q.Get("globals") != "0"
	return spec, includeGlobals, nil
}

func (s *Service) handleOneShot(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("session")
	spec, includeGlobals, aerr := specFromQuery(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	res, err := s.OneShot(ns, spec, body, includeGlobals)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, res)
}

// createRequest is the POST /v1/sessions body.
type createRequest struct {
	Namespace string `json:"namespace"`
	Function  string `json:"function"`
	StartLine int    `json:"start_line"`
	EndLine   int    `json:"end_line"`
	// IncludeGlobals defaults to true when omitted (DefaultOptions).
	IncludeGlobals *bool `json:"include_globals,omitempty"`
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req createRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("decoding session request: %v", err)})
		return
	}
	if req.Namespace == "" {
		req.Namespace = "default"
	}
	includeGlobals := req.IncludeGlobals == nil || *req.IncludeGlobals
	st, err := s.Create(req.Namespace,
		core.LoopSpec{Function: req.Function, StartLine: req.StartLine, EndLine: req.EndLine},
		includeGlobals)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) handleChunk(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil {
		writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
			Message: fmt.Sprintf("chunk sequence: %v", err)})
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := s.Chunk(id, seq, body); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleFinish(w http.ResponseWriter, r *http.Request) {
	res, err := s.Finish(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, res)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
