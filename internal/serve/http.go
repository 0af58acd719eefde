package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
)

// handler adapts a Fleet to HTTP/JSON. Routes (Go 1.22 pattern mux):
//
//	POST   /devices               create/boot a device
//	GET    /devices               list devices
//	GET    /devices/{id}          device status
//	DELETE /devices/{id}          reclaim the device to its shard pool
//	POST   /devices/{id}/install  drive one clean install transaction
//	POST   /devices/{id}/attack   drive one AIT under a GIA strategy
//	GET    /devices/{id}/timeline recorded device timeline
//	POST   /replay                run a chaos replay token
//	GET    /metrics               internal/obs text snapshot (?format=prom
//	                              for Prometheus exposition)
//	GET    /devices/{id}/trace    flight-recorder ring as JSONL
//	                              (?follow=1 streams over chunked HTTP)
//	GET    /events                fleet lifecycle/violation events (SSE)
//	GET    /slo                   per-shard SLO aggregation (JSON)
//	GET    /healthz               liveness probe
type handler struct {
	fleet    *Fleet
	reg      *obs.Registry
	requests *obs.Counter
	errors   *obs.Counter
}

// tracePollInterval paces the ?follow=1 ring poll: low enough to feel
// live, high enough that an idle follower costs nothing measurable.
const tracePollInterval = 100 * time.Millisecond

// maxBodyBytes bounds a request body. Every request type is a few short
// JSON fields, so a larger body is a broken or hostile client: it gets a
// 400 instead of being buffered whole.
const maxBodyBytes = 64 << 10

// NewHandler builds the HTTP layer over fleet. reg is rendered by
// GET /metrics and receives the serve.http.* counters; nil disables both.
func NewHandler(fleet *Fleet, reg *obs.Registry) http.Handler {
	h := &handler{
		fleet:    fleet,
		reg:      reg,
		requests: reg.Counter("serve.http.requests"),
		errors:   reg.Counter("serve.http.errors"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /devices", h.createDevice)
	mux.HandleFunc("GET /devices", h.listDevices)
	mux.HandleFunc("GET /devices/{id}", h.getDevice)
	mux.HandleFunc("DELETE /devices/{id}", h.deleteDevice)
	mux.HandleFunc("POST /devices/{id}/install", h.install)
	mux.HandleFunc("POST /devices/{id}/attack", h.attack)
	mux.HandleFunc("GET /devices/{id}/timeline", h.timeline)
	mux.HandleFunc("POST /replay", h.replay)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /devices/{id}/trace", h.deviceTrace)
	mux.HandleFunc("GET /events", h.events)
	mux.HandleFunc("GET /slo", h.slo)
	mux.HandleFunc("GET /healthz", h.healthz)
	return h.count(mux)
}

func (h *handler) count(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.requests.Inc()
		next.ServeHTTP(w, r)
	})
}

// readJSON decodes an optional JSON body of at most maxBodyBytes into v; an
// empty body (io.EOF on the first token) is the zero request, so clients
// may POST without a body for all-default operations.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return badRequestf("decode body: %v", err)
	}
	return nil
}

func (h *handler) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (h *handler) writeErr(w http.ResponseWriter, err error) {
	h.errors.Inc()
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	h.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (h *handler) createDevice(w http.ResponseWriter, r *http.Request) {
	var req CreateDeviceRequest
	if err := readJSON(w, r, &req); err != nil {
		h.writeErr(w, err)
		return
	}
	info, err := h.fleet.CreateDevice(req)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusCreated, info)
}

func (h *handler) listDevices(w http.ResponseWriter, r *http.Request) {
	devices := h.fleet.Devices()
	h.writeJSON(w, http.StatusOK, map[string]any{
		"devices": devices,
		"count":   len(devices),
	})
}

func (h *handler) getDevice(w http.ResponseWriter, r *http.Request) {
	info, err := h.fleet.Device(r.PathValue("id"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, info)
}

func (h *handler) deleteDevice(w http.ResponseWriter, r *http.Request) {
	if err := h.fleet.DeleteDevice(r.PathValue("id")); err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, map[string]string{"status": "reclaimed"})
}

func (h *handler) install(w http.ResponseWriter, r *http.Request) {
	var req InstallRequest
	if err := readJSON(w, r, &req); err != nil {
		h.writeErr(w, err)
		return
	}
	res, err := h.fleet.Install(r.PathValue("id"), req)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, res)
}

func (h *handler) attack(w http.ResponseWriter, r *http.Request) {
	var req AttackRequest
	if err := readJSON(w, r, &req); err != nil {
		h.writeErr(w, err)
		return
	}
	res, err := h.fleet.Attack(r.PathValue("id"), req)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, res)
}

func (h *handler) timeline(w http.ResponseWriter, r *http.Request) {
	entries, err := h.fleet.Timeline(r.PathValue("id"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, map[string]any{
		"device":  r.PathValue("id"),
		"entries": entries,
	})
}

func (h *handler) replay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if err := readJSON(w, r, &req); err != nil {
		h.writeErr(w, err)
		return
	}
	if req.Token == "" {
		h.writeErr(w, badRequestf("missing token"))
		return
	}
	res, err := h.fleet.Replay(req)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, res)
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	if h.reg == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = h.reg.Snapshot().WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = h.reg.Snapshot().WriteText(w)
}

// deviceTrace serves the device's flight-recorder ring as JSONL. With
// ?follow=1 the response streams over chunked HTTP: the handler pages the
// ring with EventsSince, flushing new events until the client goes away
// or the device is reclaimed.
func (h *handler) deviceTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	k, err := h.fleet.DeviceTrack(id)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	follow := r.URL.Query().Get("follow") == "1"
	flusher, canFlush := w.(http.Flusher)
	var since uint64
	for {
		evs, next := k.EventsSince(since)
		since = next
		for _, ev := range evs {
			line, err := obs.EventJSONL(k.Domain(), k.Name(), ev)
			if err != nil {
				return
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		if !follow {
			return
		}
		if canFlush {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(tracePollInterval):
		}
		// A reclaimed device ends the stream (its ring was dropped).
		if _, err := h.fleet.DeviceTrack(id); err != nil {
			return
		}
	}
}

// events serves the fleet hub as Server-Sent Events, one `data:` line of
// HubEvent JSON per event. Slow consumers drop events rather than stall
// the fleet (the hub's non-blocking contract).
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	hub := h.fleet.hub
	sub := hub.Subscribe(64)
	defer hub.Unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	if canFlush {
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, b); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
	}
}

// slo serves the per-shard SLO aggregation.
func (h *handler) slo(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, h.fleet.SLO())
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}
