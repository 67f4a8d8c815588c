package main

// The /v1/admin retraining endpoints: operator ground-truth feedback,
// the manual cycle trigger and the loop status/audit view. All three
// are mounted behind the /v1/admin token check in newServer; the loop
// itself — drift detection, sampling, shadow gating, the hot swap —
// lives in the c2mn registry (WithRetrainPolicy).

import (
	"errors"
	"fmt"
	"net/http"

	"c2mn"
	"c2mn/internal/httpapi"
)

// labeledSequenceWire is one operator-labeled sequence on the wire:
// the same record shape /v1/annotate takes, plus index-aligned
// per-record region and event ("stay"/"pass") labels.
type labeledSequenceWire struct {
	ObjectID string       `json:"object_id"`
	Records  []wireRecord `json:"records"`
	Regions  []int        `json:"regions"`
	Events   []string     `json:"events"`
}

// retrainRequest is the body of the feedback endpoint and (optionally)
// the retrain trigger: labeled ground-truth sequences for the venue's
// truth reservoir.
type retrainRequest struct {
	Data []labeledSequenceWire `json:"data"`
}

func parseEvent(s string) (c2mn.Event, error) {
	switch s {
	case "stay":
		return c2mn.Stay, nil
	case "pass":
		return c2mn.Pass, nil
	}
	return 0, fmt.Errorf("bad event %q (want \"stay\" or \"pass\")", s)
}

// toLabeledSequence validates and converts one wire sequence.
func toLabeledSequence(wi labeledSequenceWire) (c2mn.LabeledSequence, error) {
	var ls c2mn.LabeledSequence
	if wi.ObjectID == "" {
		return ls, errors.New("object_id is required")
	}
	n := len(wi.Records)
	if len(wi.Regions) != n || len(wi.Events) != n {
		return ls, fmt.Errorf("sequence %q labels misaligned: %d records, %d regions, %d events",
			wi.ObjectID, n, len(wi.Regions), len(wi.Events))
	}
	ls.P = toPSequence(sequenceRequest{ObjectID: wi.ObjectID, Records: wi.Records})
	ls.Labels = c2mn.Labels{
		Regions: make([]c2mn.RegionID, n),
		Events:  make([]c2mn.Event, n),
	}
	for i := range wi.Records {
		ls.Labels.Regions[i] = c2mn.RegionID(wi.Regions[i])
		ev, err := parseEvent(wi.Events[i])
		if err != nil {
			return ls, fmt.Errorf("sequence %q record %d: %w", wi.ObjectID, i, err)
		}
		ls.Labels.Events[i] = ev
	}
	if err := ls.Validate(); err != nil {
		return ls, err
	}
	return ls, nil
}

// decodeTruth reads an optional retrainRequest body. A missing body
// yields no sequences; a present but malformed one is a 400.
func (s *server) decodeTruth(w http.ResponseWriter, r *http.Request) ([]c2mn.LabeledSequence, bool) {
	if r.ContentLength == 0 {
		return nil, true
	}
	var req retrainRequest
	if !httpapi.DecodeBody(w, r, s.maxBody, &req) {
		return nil, false
	}
	out := make([]c2mn.LabeledSequence, 0, len(req.Data))
	for _, wi := range req.Data {
		ls, err := toLabeledSequence(wi)
		if err != nil {
			httpapi.WriteError(w, r, http.StatusBadRequest, err)
			return nil, false
		}
		out = append(out, ls)
	}
	return out, true
}

// writeRetrainError maps the retraining API's typed failures onto
// statuses. A decision with a recorded outcome rides along in the
// error payload, so a skipped or failed cycle is still auditable from
// the response alone.
func writeRetrainError(w http.ResponseWriter, r *http.Request, err error, d c2mn.RetrainDecision) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, c2mn.ErrUnknownVenue):
		status = http.StatusNotFound
	case errors.Is(err, c2mn.ErrRetrainDisabled),
		errors.Is(err, c2mn.ErrRetrainBusy),
		errors.Is(err, c2mn.ErrRetrainConflict),
		errors.Is(err, httpapi.ErrVenueDraining):
		status = http.StatusConflict
	case errors.Is(err, c2mn.ErrRetrainSamples):
		status = http.StatusUnprocessableEntity
	}
	if d.Outcome == "" {
		httpapi.WriteError(w, r, status, err)
		return
	}
	writeErrorWith(w, r, status, err, map[string]any{"decision": d})
}

// handleRetrain runs one retraining cycle for the venue synchronously:
// any labeled sequences in the body join the truth reservoir first,
// then train → shadow-score → gate → (maybe) hot swap. The decision is
// the response either way; non-2xx statuses carry it next to the typed
// error.
func (s *server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	truth, ok := s.decodeTruth(w, r)
	if !ok {
		return
	}
	d, err := s.registry.Retrain(id, truth)
	if err != nil {
		writeRetrainError(w, r, err, d)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venue": id, "decision": d})
}

// handleRetrainStatus reports the venue's loop state: drift index,
// reservoir sizes, cycle counters and the recent audit decisions.
func (s *server) handleRetrainStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	st, err := s.registry.RetrainStatus(id)
	if err != nil {
		writeRetrainError(w, r, err, c2mn.RetrainDecision{})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venue": id, "retrain": st})
}

// handleRetrainFeedback records operator ground truth without starting
// a cycle. Feedback is what opens the shadow gate: holdout scoring
// uses recorded labels, so a venue fed only its own predictions can
// never swap.
func (s *server) handleRetrainFeedback(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("venue")
	truth, ok := s.decodeTruth(w, r)
	if !ok {
		return
	}
	if len(truth) == 0 {
		httpapi.WriteError(w, r, http.StatusBadRequest, errors.New("feedback requires labeled sequences in data"))
		return
	}
	n, err := s.registry.RetrainFeedback(id, truth)
	if err != nil {
		writeRetrainError(w, r, err, c2mn.RetrainDecision{})
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"venue": id, "status": "recorded", "sequences": n})
}

// handleVenueModel reports the identity of the model a venue currently
// serves with — data plane, read-only, works with or without a
// retraining policy.
func (s *server) handleVenueModel(w http.ResponseWriter, r *http.Request) {
	httpapi.NoStore(w)
	id := r.PathValue("venue")
	info, err := s.registry.VenueModel(id)
	if err != nil {
		httpapi.WriteError(w, r, http.StatusNotFound, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, info)
}
