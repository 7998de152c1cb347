package serve

import (
	"encoding/json"
	"net/http"

	"syccl/internal/schedule"
)

// errorBody is the envelope for structured errors:
// {"error":{"code":"bad_topology","message":"..."}}.
type errorBody struct {
	Error *APIError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf = append(buf, '\n')
	_, _ = w.Write(buf)
}

func writeAPIError(w http.ResponseWriter, e *APIError) {
	writeJSON(w, e.Status, errorBody{Error: e})
}

// responder writes one synthesis answer in the shape the request asked
// for: a JSON body, or (stream) NDJSON events flushed one by one so
// clients see incumbents as they are found, not when the response buffer
// happens to fill.
type responder struct {
	w        http.ResponseWriter
	stream   bool
	schedule bool // attach the transfer list to the final response
	started  bool // a stream event, and with it HTTP 200, is out
	enc      *json.Encoder
}

// emit writes one event line. The first emit commits the 200 status and
// the NDJSON content type — streaming responses are always HTTP 200;
// failures after that point arrive as a terminal error event.
func (o *responder) emit(ev StreamEvent) {
	if !o.started {
		o.started = true
		o.w.Header().Set("Content-Type", NDJSONContentType)
		o.w.WriteHeader(http.StatusOK)
		o.enc = json.NewEncoder(o.w)
	}
	// Encode appends the newline that delimits NDJSON records.
	_ = o.enc.Encode(ev)
	if f, ok := o.w.(http.Flusher); ok {
		f.Flush()
	}
}

// final writes a successful result: the body of a JSON response, or the
// final event of a stream.
func (o *responder) final(status int, resp SynthesizeResponse, sched *schedule.Schedule) {
	if o.schedule {
		resp.Schedule = ToScheduleJSON(sched)
	}
	if !o.stream {
		writeJSON(o.w, status, &resp)
		return
	}
	o.emit(StreamEvent{Event: StreamEventFinal, TimeS: resp.PredictedTimeS, Partial: resp.Partial, Response: &resp})
}
