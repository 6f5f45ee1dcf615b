// Package pl implements HEDC's Processing Logic component: the middle-tier
// service that "hides external processing environments behind an interface
// that the rest of the system can use to request external processing"
// (§5.1). It is organized around the paper's three services:
//
//   - Frontend (one instance): primary controller of sessions and requests,
//     dispatch and priority scheduling to processing subsystems.
//   - IDL server manager (one per processing node): manages native
//     interpreters (start/stop/restart), invokes routines synchronously and
//     asynchronously, and implements error handling (timeout, resource
//     drain).
//   - Global directory (one instance): a directory of all PL services.
//
// Requests follow the 4-phase model — Estimation, Execution, Delivery,
// Commit — with per-type strategy classes supplying each phase, and can be
// canceled at any time with cleanup of the current phase.
package pl

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ServiceKind classifies directory entries.
type ServiceKind string

// Directory service kinds.
const (
	KindFrontend ServiceKind = "frontend"
	KindManager  ServiceKind = "idl-manager"
)

// ServiceInfo is one directory entry.
type ServiceInfo struct {
	ID        string
	Kind      ServiceKind
	Location  string // "server", "client", a host name...
	Heartbeat time.Time
	manager   *Manager // resolved handle for in-process managers
}

// Manager returns the in-process manager handle (nil for foreign entries).
func (s *ServiceInfo) Manager() *Manager { return s.manager }

// Directory is the global service registry. Interactions between PL
// services are self-recovering: managers can appear and disappear at run
// time without halting the system, so the directory tolerates stale
// entries via heartbeats.
type Directory struct {
	mu       sync.RWMutex
	services map[string]*ServiceInfo
	// StaleAfter marks entries dead when their heartbeat is older.
	StaleAfter time.Duration
}

// NewDirectory returns an empty registry.
func NewDirectory() *Directory {
	return &Directory{services: make(map[string]*ServiceInfo), StaleAfter: time.Minute}
}

// RegisterManager adds (or refreshes) an IDL server manager.
func (d *Directory) RegisterManager(m *Manager, location string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.services[m.ID()] = &ServiceInfo{
		ID: m.ID(), Kind: KindManager, Location: location,
		Heartbeat: time.Now(), manager: m,
	}
}

// Heartbeat refreshes a service's liveness.
func (d *Directory) Heartbeat(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.services[id]
	if !ok {
		return fmt.Errorf("pl: heartbeat from unknown service %s", id)
	}
	s.Heartbeat = time.Now()
	return nil
}

// Managers returns the live managers, optionally restricted to a location
// ("" = anywhere), sorted by id for determinism.
func (d *Directory) Managers(location string) []*ServiceInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*ServiceInfo
	cutoff := time.Now().Add(-d.StaleAfter)
	for _, s := range d.services {
		if s.Kind != KindManager {
			continue
		}
		if location != "" && s.Location != location {
			continue
		}
		if s.Heartbeat.Before(cutoff) {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
