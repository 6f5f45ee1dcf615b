// Package pl implements HEDC's Processing Logic component: the middle-tier
// service that "hides external processing environments behind an interface
// that the rest of the system can use to request external processing"
// (§5.1). It is organized around the paper's three services:
//
//   - Frontend (one instance): primary controller of sessions and requests,
//     dispatch and priority scheduling to processing subsystems.
//   - IDL server manager (one per processing node): manages native
//     interpreters (start/restart, and growing the pool at run time),
//     invokes routines, and implements error handling (timeout, resource
//     drain).
//   - Global directory (one instance): a registry of the IDL server
//     managers and where each runs. Every entry is an in-process manager
//     that lives as long as the process, so entries never go stale.
//
// Requests follow the 4-phase model — Estimation, Execution, Delivery,
// Commit — with per-type strategy classes supplying each phase, and can be
// canceled at any time with cleanup of the current phase.
package pl

import (
	"fmt"
	"sort"
	"sync"
)

// ServiceInfo is one directory entry: a manager and where it runs.
type ServiceInfo struct {
	ID       string
	Location string // "server", "client", a host name...
	manager  *Manager
}

// Manager returns the entry's manager.
func (s *ServiceInfo) Manager() *Manager { return s.manager }

// Directory is the global service registry. Managers can appear at run
// time without halting the system (§5.1); none ever leaves.
type Directory struct {
	mu       sync.RWMutex
	services map[string]*ServiceInfo
}

// NewDirectory returns an empty registry.
func NewDirectory() *Directory {
	return &Directory{services: make(map[string]*ServiceInfo)}
}

// RegisterManager adds an IDL server manager. Manager ids are unique: a
// second registration under one id fails.
func (d *Directory) RegisterManager(m *Manager, location string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.services[m.ID()]; dup {
		return fmt.Errorf("pl: duplicate manager %s", m.ID())
	}
	d.services[m.ID()] = &ServiceInfo{ID: m.ID(), Location: location, manager: m}
	return nil
}

// Managers returns every registered manager, sorted by id for determinism.
func (d *Directory) Managers() []*ServiceInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*ServiceInfo, 0, len(d.services))
	for _, s := range d.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
