package lake

import (
	"fmt"
	"sort"
)

// A View is the catalog as of one commit: an immutable member index
// resolved by replaying the journal prefix [1, seq]. Opening a view
// appends a durable pin record, so the GC horizon can never pass the view
// even across a process restart; Close appends the matching unpin.
type View struct {
	l       *Lake
	seq     uint64
	token   string
	members map[string]memberRef
	closed  bool
}

// viewAt builds the member index as of seq: the materialized base view at
// the horizon plus a replay of the retained records in (baseSeq, seq].
// OpenAt guarantees seq ≥ horizon ≥ baseSeq, so the folded-away prefix is
// never needed. Caller holds l.mu.
func (l *Lake) viewAt(seq uint64) map[string]memberRef {
	members := make(map[string]memberRef, len(l.baseMembers))
	for rel, ref := range l.baseMembers {
		members[rel] = ref
	}
	ctrs := make(map[string]Container, len(l.baseCtrs))
	for p, c := range l.baseCtrs {
		ctrs[p] = c
	}
	for _, r := range l.records {
		if r.Seq > seq {
			break
		}
		switch r.Kind {
		case KindGC, KindPin, KindUnpin:
			continue
		}
		for _, p := range r.Removes {
			c, ok := ctrs[p]
			if !ok {
				continue
			}
			delete(ctrs, p)
			for _, m := range c.Members {
				if ref, ok := members[m.Rel]; ok && ref.path == p {
					delete(members, m.Rel)
				}
			}
		}
		for _, c := range r.Adds {
			ctrs[c.Path] = c
			for _, m := range c.Members {
				members[m.Rel] = memberRef{path: c.Path, m: m}
			}
		}
		for _, rel := range r.Tombstones {
			delete(members, rel)
		}
	}
	return members
}

// OpenAt opens a read-only view of the catalog as of commit seq, pinning
// it durably against GC. seq == 0 (or == head) pins the current head.
func (l *Lake) OpenAt(seq uint64) (*View, error) {
	l.mu.Lock()
	if seq == 0 {
		seq = l.head
	}
	if seq > l.head {
		l.mu.Unlock()
		return nil, fmt.Errorf("lake: commit %d is beyond head %d", seq, l.head)
	}
	if seq < l.horizon {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: commit %d < horizon %d", ErrHorizon, seq, l.horizon)
	}
	token := fmt.Sprintf("pin-%d", l.nextPin)
	l.nextPin++
	if err := l.commit(&Record{Kind: KindPin, PinSeq: seq, PinToken: token}); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	members := l.viewAt(seq)
	l.mu.Unlock()
	l.stats.AsOfOpens.Add(1)
	return &View{l: l, seq: seq, token: token, members: members}, nil
}

// AttachPin re-opens a view over a pin that survived a restart. The pin
// stays registered after the view is closed only if Close is never called.
func (l *Lake) AttachPin(token string) (*View, error) {
	l.mu.Lock()
	seq, ok := l.pins[token]
	if !ok {
		l.mu.Unlock()
		return nil, fmt.Errorf("lake: no pin %q", token)
	}
	members := l.viewAt(seq)
	l.mu.Unlock()
	return &View{l: l, seq: seq, token: token, members: members}, nil
}

// Pins lists the durable pin tokens and their commits.
func (l *Lake) Pins() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.pins))
	for t, s := range l.pins {
		out[t] = s
	}
	return out
}

// Unpin drops a durable pin by token without an open View (restart
// cleanup).
func (l *Lake) Unpin(token string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.pins[token]; !ok {
		return fmt.Errorf("lake: no pin %q", token)
	}
	return l.commit(&Record{Kind: KindUnpin, PinToken: token})
}

// Seq returns the pinned commit; Token the durable pin token.
func (v *View) Seq() uint64 { return v.seq }

// Token returns the durable pin token backing this view.
func (v *View) Token() string { return v.token }

// Read returns a member's verified bytes as of the pinned commit.
func (v *View) Read(rel string) ([]byte, error) {
	rel, err := cleanRel(rel)
	if err != nil {
		return nil, err
	}
	ref, ok := v.members[rel]
	if !ok {
		return nil, fmt.Errorf("%w: %s (as of commit %d)", ErrNotFound, rel, v.seq)
	}
	data, err := v.l.readMember(ref)
	if err == nil {
		v.l.stats.AsOfReads.Add(1)
	}
	return data, err
}

// Exists reports whether rel was live as of the pinned commit.
func (v *View) Exists(rel string) bool {
	rel, err := cleanRel(rel)
	if err != nil {
		return false
	}
	_, ok := v.members[rel]
	return ok
}

// List returns the member paths live as of the pinned commit, sorted.
func (v *View) List() []string {
	out := make([]string, 0, len(v.members))
	for rel := range v.members {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count as of the pinned commit.
func (v *View) Len() int { return len(v.members) }

// Close releases the durable pin. Idempotent.
func (v *View) Close() error {
	if v.closed {
		return nil
	}
	v.closed = true
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	if _, ok := v.l.pins[v.token]; !ok {
		return nil
	}
	return v.l.commit(&Record{Kind: KindUnpin, PinToken: v.token})
}
