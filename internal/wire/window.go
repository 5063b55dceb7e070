package wire

import "sync"

// windowCap bounds an idempotency window. Retries follow failures within
// seconds, so a few thousand recent IDs is plenty; older ones age out.
const windowCap = 4096

// Window is the server side of idempotent retries: it applies each
// client-unique request ID's mutation once, and acknowledges a re-sent
// request whose response was lost without applying it again. The zero
// value is ready to use.
//
// An ID is recorded only once its mutation commits, and ages out after
// windowCap newer commits. One sync.Cond serves the whole window, so an
// entry costs no more than its map slot and its place in the age order.
type Window struct {
	mu       sync.Mutex
	resolved sync.Cond       // broadcast whenever an apply finishes
	ids      map[string]bool // true: committed; false: being applied
	order    []string        // committed IDs, oldest first
}

// Do runs apply for id unless id has already committed, in which case it
// reports dup and applies nothing. A request whose ID is still being
// applied for another connection — a retry that overtook its original,
// say after the client timed out during a journal fsync — waits for that
// outcome: if the original commits, this one is a duplicate; if it fails,
// this one applies. A failed apply releases the ID, so the client's retry
// is applied rather than absorbed. An empty ID is never deduplicated.
func (w *Window) Do(id string, apply func() error) (dup bool, err error) {
	if id == "" {
		return false, apply()
	}
	w.mu.Lock()
	if w.ids == nil {
		w.ids = make(map[string]bool)
		w.resolved.L = &w.mu
	}
	for {
		committed, known := w.ids[id]
		if !known {
			break
		}
		if committed {
			w.mu.Unlock()
			return true, nil
		}
		w.resolved.Wait()
	}
	w.ids[id] = false
	w.mu.Unlock()

	err = apply()

	w.mu.Lock()
	if err != nil {
		delete(w.ids, id)
	} else {
		w.ids[id] = true
		w.order = append(w.order, id)
		if len(w.order) > windowCap {
			delete(w.ids, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.mu.Unlock()
	w.resolved.Broadcast()
	return false, err
}
