package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"syccl/internal/obs"
	"syccl/internal/persist"
	"syccl/internal/serve"
)

// daemon is an in-process syccl-serve server listening on loopback,
// driven over real HTTP.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	rec    *obs.Recorder
	done   chan struct{}
}

// bootDaemon builds the server (restoring from persistDir when set) and
// waits until it answers /healthz. It returns the daemon and the time
// persist.Open plus serve.New took, which includes the schedule-store
// restore.
func bootDaemon(o serve.Options, persistDir string) (*daemon, time.Duration, error) {
	// The same bounded recorder the server would build for itself; the
	// benchmark keeps a handle to read the pipeline counters.
	rec := obs.NewRecorder()
	rec.SetRetention(serve.DefaultMaxSpans, serve.DefaultMaxSamples)
	o.Obs = rec
	start := time.Now()
	if persistDir != "" {
		st, err := persist.Open(persist.Options{Dir: persistDir})
		if err != nil {
			return nil, 0, err
		}
		o.Persist = st
	}
	srv := serve.New(o)
	restore := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
		rec:    rec,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln)
	}()
	if status, _, err := d.get("/healthz"); err != nil || status != http.StatusOK {
		d.close()
		return nil, 0, fmt.Errorf("daemon not healthy: status %d, %v", status, err)
	}
	return d, restore, nil
}

// close shuts the listener, drains the server (which flushes the
// persist snapshot) and waits for the serving goroutine to exit.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	d.srv.Drain(ctx)
	<-d.done
	d.client.CloseIdleConnections()
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends a JSON body and returns the status, the body and the
// request id the server assigned.
func (d *daemon) post(path string, body []byte) (int, []byte, string, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get(serve.RequestIDHeader), err
}

// streamed is the client-side view of one streamed synthesis.
type streamed struct {
	status int
	reqID  string
	first  time.Duration // to the first incumbent event (0: none)
	final  time.Duration // to the final event
	bound  float64       // the last incumbent's bound_s
	resp   *serve.SynthesizeResponse
	err    error
}

// stream posts a streaming synthesis and reads the NDJSON events as they
// arrive, timing the first incumbent and the final event from the send.
func (d *daemon) stream(body []byte) streamed {
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return streamed{err: err}
	}
	defer resp.Body.Close()
	out := streamed{status: resp.StatusCode, reqID: resp.Header.Get(serve.RequestIDHeader)}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		out.err = fmt.Errorf("status %d", resp.StatusCode)
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		ev, err := serve.ParseStreamEvent(sc.Bytes())
		if err != nil {
			out.err = err
			return out
		}
		switch ev.Event {
		case serve.StreamEventIncumbent:
			if out.first == 0 {
				out.first = time.Since(start)
			}
			out.bound = ev.BoundS
		case serve.StreamEventFinal:
			out.final = time.Since(start)
			out.resp = ev.Response
			if out.first == 0 {
				out.first = out.final
			}
			return out
		case serve.StreamEventError:
			out.err = fmt.Errorf("error event: %s", ev.Error.Message)
			return out
		}
	}
	if err := sc.Err(); err != nil {
		out.err = err
	} else {
		out.err = fmt.Errorf("stream ended without a final event")
	}
	return out
}

// synthesized decodes a non-streaming synthesize or replan response.
func synthesized(status int, body []byte) (*serve.SynthesizeResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var r serve.SynthesizeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.Partial || r.ID == "" {
		return nil, fmt.Errorf("partial response")
	}
	return &r, nil
}

// statsz reads GET /statsz.
func (d *daemon) statsz() (serve.StatsSnapshot, error) {
	var snap serve.StatsSnapshot
	status, b, err := d.get("/statsz")
	if err != nil {
		return snap, err
	}
	if status != http.StatusOK {
		return snap, fmt.Errorf("statsz: status %d", status)
	}
	return snap, json.Unmarshal(b, &snap)
}

// debugRecord reads GET /debug/requests/{id}.
func (d *daemon) debugRecord(id string) (*serve.RequestRecord, error) {
	status, b, err := d.get("/debug/requests/" + id)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("debug record %s: status %d", id, status)
	}
	var rr serve.RequestRecord
	return &rr, json.Unmarshal(b, &rr)
}
