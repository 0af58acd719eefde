package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/serve"
)

// runSmoke drives one device through the daemon's full HTTP lifecycle:
// create → status → install → attack → flight-ring trace → chaos replay →
// metrics scrape → reclaim, and checks that a create sending the unknown
// field "timeline" is refused with 400. Any deviation from the
// expected simulation outcome (clean install, successful hijack on an
// unpatched store, both AITs on the device's ring, counters present in
// /metrics) is a failure.
func runSmoke(base string) error {
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 60 * time.Second}

	if body, err := get(client, base+"/healthz"); err != nil {
		return fmt.Errorf("healthz: %w", err)
	} else if !strings.Contains(string(body), "ok") {
		return fmt.Errorf("healthz returned %q", body)
	}

	var dev serve.DeviceInfo
	if err := postJSON(client, base+"/devices", serve.CreateDeviceRequest{Store: "amazon"}, &dev); err != nil {
		return fmt.Errorf("create device: %w", err)
	}
	if dev.ID == "" {
		return fmt.Errorf("create device: empty id in %+v", dev)
	}

	var status serve.DeviceInfo
	if err := getJSON(client, base+"/devices/"+dev.ID, &status); err != nil {
		return fmt.Errorf("device status: %w", err)
	}
	if status.ID != dev.ID || status.Store != "amazon" {
		return fmt.Errorf("device status mismatch: %+v", status)
	}

	var inst serve.InstallResult
	if err := postJSON(client, base+"/devices/"+dev.ID+"/install", nil, &inst); err != nil {
		return fmt.Errorf("install: %w", err)
	}
	if !inst.Installed || !inst.Clean {
		return fmt.Errorf("install not clean: %+v", inst)
	}

	var atk serve.AttackResult
	if err := postJSON(client, base+"/devices/"+dev.ID+"/attack", nil, &atk); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	if !atk.Hijacked {
		return fmt.Errorf("attack on unpatched amazon device did not hijack: %+v", atk)
	}

	// The flight ring is the device's one recorder: it must hold both
	// AITs' step instants and their outcome spans.
	trace, err := get(client, base+"/devices/"+dev.ID+"/trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, want := range []string{`"name":"invocation"`, `"name":"installed"`, `"detail":"clean"`, `"detail":"hijacked"`} {
		if !strings.Contains(string(trace), want) {
			return fmt.Errorf("device trace lacks %s after install+attack:\n%s", want, trace)
		}
	}

	resp, err := client.Post(base+"/devices", "application/json", strings.NewReader(`{"timeline":true}`))
	if err != nil {
		return fmt.Errorf("create with timeline: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("create with timeline: status %d, want 400", resp.StatusCode)
	}

	var rep serve.ReplayResult
	token := chaos.Schedule{Seed: 7}.Token()
	if err := postJSON(client, base+"/replay", serve.ReplayRequest{Token: token}, &rep); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if rep.Violated {
		return fmt.Errorf("fault-free replay reported violation: %+v", rep)
	}

	metrics, err := get(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{"serve.devices.created", "serve.installs.clean", "serve.attacks.hijacked", "arena.misses", "serve.http.requests"} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/devices/"+dev.ID, nil)
	if err != nil {
		return err
	}
	resp, err = client.Do(req)
	if err != nil {
		return fmt.Errorf("reclaim: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reclaim status %d", resp.StatusCode)
	}
	if err := getJSON(client, base+"/devices/"+dev.ID, &status); err == nil {
		return fmt.Errorf("device still served after reclaim")
	}
	return nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func getJSON(client *http.Client, url string, out any) error {
	body, err := get(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func postJSON(client *http.Client, url string, in, out any) error {
	var rd io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(payload)
	}
	resp, err := client.Post(url, "application/json", rd)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}
