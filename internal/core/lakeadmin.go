package core

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/lake"
)

// Operator surface for the default archive's journal. Everything here is
// plumbing over internal/lake — the policy (what to compact, how much
// history to keep) stays with the operator:
//
//	GET  /admin/lake/status        journal head, horizon, footprint, pins
//	POST /admin/lake/compact       one compaction round (small/dead merge)
//	POST /admin/lake/gc?keep=N     retire history to head-N (pin-bounded)
//	POST /admin/lake/pin?commit=N  durable pin at commit N (0 = head)
//	POST /admin/lake/unpin?token=  release a durable pin
//	GET  /admin/lake/pins          the durable pin set
func (n *Node) lakeAdminHandler() http.Handler {
	mux := http.NewServeMux()

	reply := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	fail := func(w http.ResponseWriter, code int, err error) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	}
	withLake := func(method string, fn func(w http.ResponseWriter, r *http.Request, lk *lake.Lake)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			fn(w, r, n.DM.DefaultArchive().Lake())
		}
	}

	mux.Handle("/admin/lake/status", withLake(http.MethodGet, func(w http.ResponseWriter, r *http.Request, lk *lake.Lake) {
		ds := n.DM.Stats()
		reply(w, map[string]any{
			"lake":        lk.Status(),
			"asof_opens":  ds.AsOfOpens.Load(),
			"asof_reads":  ds.AsOfReads.Load(),
			"keepHistory": n.cfg.LakeKeepHistory,
		})
	}))
	mux.Handle("/admin/lake/compact", withLake(http.MethodPost, func(w http.ResponseWriter, r *http.Request, lk *lake.Lake) {
		cr, err := lk.Compact(lake.DefaultCompactOptions())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		reply(w, cr)
	}))
	mux.Handle("/admin/lake/gc", withLake(http.MethodPost, func(w http.ResponseWriter, r *http.Request, lk *lake.Lake) {
		keep := n.cfg.LakeKeepHistory
		if v := r.URL.Query().Get("keep"); v != "" {
			k, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			keep = k
		}
		target := lk.Head()
		if target > keep {
			target -= keep
		} else {
			target = 0
		}
		gr, err := lk.GC(target)
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		reply(w, gr)
	}))
	mux.Handle("/admin/lake/pin", withLake(http.MethodPost, func(w http.ResponseWriter, r *http.Request, lk *lake.Lake) {
		var commit uint64
		if v := r.URL.Query().Get("commit"); v != "" {
			c, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			commit = c
		}
		// The View handle is dropped deliberately: the pin itself is a
		// durable journal record, released only by an explicit unpin.
		v, err := lk.OpenAt(commit)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		reply(w, map[string]any{"token": v.Token(), "commit": v.Seq()})
	}))
	mux.Handle("/admin/lake/unpin", withLake(http.MethodPost, func(w http.ResponseWriter, r *http.Request, lk *lake.Lake) {
		token := r.URL.Query().Get("token")
		if err := lk.Unpin(token); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		reply(w, map[string]string{"unpinned": token})
	}))
	mux.Handle("/admin/lake/pins", withLake(http.MethodGet, func(w http.ResponseWriter, r *http.Request, lk *lake.Lake) {
		reply(w, lk.Pins())
	}))
	return mux
}
