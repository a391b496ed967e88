package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Streamed progress: GET /jobs/{id}/events serves the job's lifecycle as
// Server-Sent Events. Each observable change (state transition, finished
// policy run) emits one "progress" event whose data is the job's View;
// eval and replay jobs run all their policies in one shared pass, so
// their policy completions land together at the end of the pass;
// the final event is named after the terminal state and carries the full
// view including Output. The stream is change-driven — watchers park on
// the job's change channel, no polling — so an idle job costs nothing.

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if _, ok := w.(http.Flusher); !ok {
		httpError(w, http.StatusNotImplemented, "response writer cannot stream")
		return
	}
	// Flush through the controller, not the bare Flusher: its Flush
	// returns the transport error a dead client produces, where
	// http.Flusher.Flush would swallow it and leave this loop parked on
	// the change channel for one more (pointless) event.
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	for {
		// Snapshot after grabbing the change channel: changes landing
		// between the two are covered by the snapshot and re-delivered
		// (harmlessly) by the already-closed channel.
		_, changed := job.watch()
		v := job.view()
		terminal := v.State == StateDone || v.State == StateFailed || v.State == StateCanceled
		name := "progress"
		if terminal {
			name = v.State
		}
		if err := writeEvent(w, name, v); err != nil {
			return // client went away
		}
		if err := rc.Flush(); err != nil {
			return // client went away mid-flush
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame.
func writeEvent(w http.ResponseWriter, name string, v View) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	return err
}
