package kvstore

import (
	"ofc/internal/sim"
	"ofc/internal/simnet"
)

// Write stores (or overwrites) key with blob. The master copy lands on
// preferred when that node has a live server with room (OFC routes
// writes to the invoking worker for locality, §6.5). The write is
// durable once all backups have buffered it, matching RAMCloud's
// commit point. Returns the new version.
func (c *Cluster) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	return c.WriteBy(caller, key, blob, tags, preferred, 0)
}

// WriteBy is Write with a deadline: once a network leg ends past it
// the op returns ErrTimeout. A new key that times out before the
// master commits gives its placement back; after the commit the
// object stays and only the ack is lost, as with a timed-out RPC.
// A zero deadline means none.
func (c *Cluster) WriteBy(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID, deadline sim.Time) (uint64, error) {
	if c.tracer == nil {
		return c.doWrite(caller, key, blob, tags, preferred, deadline)
	}
	sp := c.tracer.Begin(0, 0, "kv.write", caller)
	sp.SetNum("bytes", blob.Size)
	ver, err := c.doWrite(caller, key, blob, tags, preferred, deadline)
	if err != nil {
		sp.SetNum("err", 1)
	}
	c.tracer.End(&sp)
	return ver, err
}

// doWrite is WriteBy's body (the wrapper owns the span).
func (c *Cluster) doWrite(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID, deadline sim.Time) (uint64, error) {
	if blob.Size > c.cfg.MaxObjectSize {
		return 0, ErrTooLarge
	}
	p, ok, lerr := c.lookup(caller, key)
	if lerr != nil {
		return 0, lerr
	}
	if c.late(deadline) {
		return 0, ErrTimeout
	}
	if !ok {
		var err error
		p, err = c.place(key, blob.Size, preferred)
		if err != nil {
			return 0, err
		}
	}
	master := c.Server(p.master)
	if master == nil {
		return 0, ErrNoSuchServer
	}

	// Ship the payload to the master.
	c.countServerRPC()
	err := c.net.TryTransfer(caller, p.master, blob.Size+c.cfg.ControlMsgSize)
	if err == nil && c.late(deadline) {
		err = ErrTimeout
	}
	if err != nil {
		if !ok {
			c.placeDelete(key)
		}
		return 0, err
	}

	env := c.env()
	var version uint64
	var werr error
	// Master-side processing.
	env.Sleep(c.cfg.ServeOverhead + c.memCopyTime(blob.Size))
	if c.late(deadline) {
		if !ok {
			c.placeDelete(key)
		}
		return 0, ErrTimeout
	}
	master.mu.Lock()
	if master.crashed {
		master.mu.Unlock()
		return 0, ErrCrashed
	}
	old, existed := master.log.get(key)
	delta := blob.Size
	if existed {
		delta -= old.meta.Size
	}
	if master.log.live+delta > master.limit {
		master.mu.Unlock()
		if !ok { // undo speculative placement of a brand-new object
			c.placeDelete(key)
		}
		return 0, ErrNoSpace
	}
	version = c.nextVer.Add(1)
	now := env.Now()
	var created sim.Time
	var naccess int64
	if existed {
		created = old.meta.Created
		naccess = old.meta.NAccess
	} else {
		created = now
	}
	meta := Meta{
		Version: version, Size: blob.Size, Created: created,
		NAccess: naccess, LastAccess: now, Tags: cloneTags(tags),
	}
	master.log.put(key, &object{blob: blob, meta: meta})
	// Log-structured memory: if dead entries push the allocated bytes
	// past the budget, the cleaner compacts before the write returns
	// (write-path backpressure, as in RAMCloud).
	var cleanedBytes int64
	if master.log.alloc > master.limit {
		cleanedBytes = master.log.clean(master.limit)
	}
	master.writes++
	master.mu.Unlock()
	if ok && existed {
		// Overwrite of an existing object: refresh the coordinator's
		// size record so byte-weighted locality stays accurate.
		c.placeUpdate(key, func(p placement) placement { p.size = blob.Size; return p })
	}
	if cleanedBytes > 0 {
		env.Sleep(c.memCopyTime(cleanedBytes))
	}

	// Replicate to backups in parallel; ack when all have buffered.
	wg := sim.NewWaitGroup(env)
	errs := make([]error, len(p.backups))
	for i, b := range p.backups {
		i, b := i, b
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			bs := c.Server(b)
			if bs == nil {
				errs[i] = ErrNoSuchServer
				return
			}
			if err := c.net.TryTransfer(p.master, b, blob.Size+c.cfg.ControlMsgSize); err != nil {
				errs[i] = err
				return
			}
			env.Sleep(c.memCopyTime(blob.Size)) // buffer in backup RAM
			bs.mu.Lock()
			if bs.crashed {
				errs[i] = ErrCrashed
				bs.mu.Unlock()
				return
			}
			bs.backups[key] = replica{blob: blob, meta: meta}
			bs.mu.Unlock()
			// Asynchronous disk flush, off the commit path. The buffer
			// copy is retained after the flush (RAMCloud backups keep
			// segments buffered while RAM allows), which is what makes
			// migration-by-promotion fast; only a machine restart
			// drops buffers (see Restart).
			env.Go(func() {
				bs.node.DiskWrite(blob.Size)
				bs.mu.Lock()
				if cur, ok := bs.backups[key]; ok && cur.meta.Version == meta.Version {
					bs.disk[key] = cur
				}
				bs.mu.Unlock()
			})
			errs[i] = c.net.TryTransfer(b, p.master, c.cfg.ControlMsgSize)
		})
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil && werr == nil {
			werr = e
		}
	}
	// Ack to the caller.
	if err := c.net.TryTransfer(p.master, caller, c.cfg.ControlMsgSize); err != nil && werr == nil {
		werr = err
	}
	if werr == nil && c.late(deadline) {
		werr = ErrTimeout
	}
	if werr != nil {
		return 0, werr
	}
	return version, nil
}

// late reports whether an op with the given deadline (0 = none) has
// run past it.
func (c *Cluster) late(deadline sim.Time) bool {
	return deadline > 0 && c.env().Now() > deadline
}

func cloneTags(tags map[string]string) map[string]string {
	if tags == nil {
		return nil
	}
	out := make(map[string]string, len(tags))
	for k, v := range tags {
		out[k] = v
	}
	return out
}

// Read fetches key's payload from its master, updating the OFC access
// statistics.
func (c *Cluster) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	return c.ReadBy(caller, key, 0)
}

// ReadBy is Read with a deadline: once a network leg ends past it the
// op returns ErrTimeout. A zero deadline means none.
func (c *Cluster) ReadBy(caller simnet.NodeID, key string, deadline sim.Time) (Blob, Meta, error) {
	if c.tracer == nil {
		return c.doRead(caller, key, deadline)
	}
	sp := c.tracer.Begin(0, 0, "kv.read", caller)
	blob, meta, err := c.doRead(caller, key, deadline)
	if err != nil {
		sp.SetNum("err", 1)
	} else {
		sp.SetNum("bytes", blob.Size)
	}
	c.tracer.End(&sp)
	return blob, meta, err
}

// doRead is ReadBy's body (the wrapper owns the span).
func (c *Cluster) doRead(caller simnet.NodeID, key string, deadline sim.Time) (Blob, Meta, error) {
	p, ok, lerr := c.lookup(caller, key)
	if lerr != nil {
		return Blob{}, Meta{}, lerr
	}
	if c.late(deadline) {
		return Blob{}, Meta{}, ErrTimeout
	}
	if !ok {
		return Blob{}, Meta{}, ErrNotFound
	}
	s := c.Server(p.master)
	if s == nil {
		return Blob{}, Meta{}, ErrNoSuchServer
	}
	env := c.env()
	// Request to master.
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, p.master, c.cfg.ControlMsgSize); err != nil {
		return Blob{}, Meta{}, err
	}
	if c.late(deadline) {
		return Blob{}, Meta{}, ErrTimeout
	}
	env.Sleep(c.cfg.ServeOverhead)
	if caller != p.master {
		env.Sleep(c.cfg.CrossNodeOverhead)
	}
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return Blob{}, Meta{}, ErrCrashed
	}
	o, found := s.log.get(key)
	if !found {
		s.mu.Unlock()
		return Blob{}, Meta{}, ErrNotFound
	}
	o.meta.NAccess++
	o.meta.LastAccess = env.Now()
	blob, meta := o.blob, o.meta
	s.reads++
	s.mu.Unlock()
	// Payload back to the caller.
	if err := c.net.TryTransfer(p.master, caller, blob.Size+c.cfg.ControlMsgSize); err != nil {
		return Blob{}, Meta{}, err
	}
	if c.late(deadline) {
		return Blob{}, Meta{}, ErrTimeout
	}
	return blob, meta, nil
}

// Stat returns the metadata of key without moving the payload.
func (c *Cluster) Stat(caller simnet.NodeID, key string) (Meta, error) {
	p, ok, lerr := c.lookup(caller, key)
	if lerr != nil {
		return Meta{}, lerr
	}
	if !ok {
		return Meta{}, ErrNotFound
	}
	s := c.Server(p.master)
	if s == nil {
		return Meta{}, ErrNoSuchServer
	}
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, p.master, c.cfg.ControlMsgSize); err != nil {
		return Meta{}, err
	}
	c.env().Sleep(c.cfg.ServeOverhead)
	s.mu.Lock()
	o, found := s.log.get(key)
	if !found || s.crashed {
		s.mu.Unlock()
		return Meta{}, ErrNotFound
	}
	meta := o.meta
	s.mu.Unlock()
	if err := c.net.TryTransfer(p.master, caller, c.cfg.ControlMsgSize); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// SetTag updates one metadata tag on the master copy.
func (c *Cluster) SetTag(caller simnet.NodeID, key, tag, value string) error {
	p, ok, lerr := c.lookup(caller, key)
	if lerr != nil {
		return lerr
	}
	if !ok {
		return ErrNotFound
	}
	s := c.Server(p.master)
	if s == nil {
		return ErrNoSuchServer
	}
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, p.master, c.cfg.ControlMsgSize); err != nil {
		return err
	}
	s.mu.Lock()
	o, found := s.log.get(key)
	if !found || s.crashed {
		s.mu.Unlock()
		return ErrNotFound
	}
	if o.meta.Tags == nil {
		o.meta.Tags = make(map[string]string)
	}
	o.meta.Tags[tag] = value
	ver := o.meta.Version
	s.mu.Unlock()
	// Propagate the tag to backup replicas of the same version so a
	// post-recovery master sees current flags (a persisted object must
	// not come back tagged dirty). The master piggybacks these tiny
	// updates on its replication stream; we fold the cost into the ack.
	for _, b := range p.backups {
		bs := c.Server(b)
		if bs == nil {
			continue
		}
		bs.mu.Lock()
		for _, m := range []map[string]replica{bs.backups, bs.disk} {
			if rep, ok := m[key]; ok && rep.meta.Version == ver {
				if rep.meta.Tags == nil {
					rep.meta.Tags = make(map[string]string)
				} else {
					rep.meta.Tags = cloneTags(rep.meta.Tags)
				}
				rep.meta.Tags[tag] = value
				m[key] = rep
			}
		}
		bs.mu.Unlock()
	}
	if err := c.net.TryTransfer(p.master, caller, c.cfg.ControlMsgSize); err != nil {
		return err
	}
	return nil
}

// Delete removes key from the store (master and backups).
func (c *Cluster) Delete(caller simnet.NodeID, key string) error {
	p, ok, lerr := c.lookup(caller, key)
	if lerr != nil {
		return lerr
	}
	if !ok {
		return ErrNotFound
	}
	c.countServerRPC()
	if err := c.net.TryTransfer(caller, p.master, c.cfg.ControlMsgSize); err != nil {
		return err
	}
	c.dropLocal(p, key)
	c.placeDelete(key)
	if err := c.net.TryTransfer(p.master, caller, c.cfg.ControlMsgSize); err != nil {
		return err
	}
	return nil
}

// dropLocal erases key's copies without network charges (the master
// fans out tiny control messages to backups; we fold that cost into
// the caller's ack path).
func (c *Cluster) dropLocal(p placement, key string) {
	if s := c.Server(p.master); s != nil {
		s.mu.Lock()
		if _, freed := s.log.delete(key); freed {
			s.evictions++
		}
		s.mu.Unlock()
	}
	for _, b := range p.backups {
		if bs := c.Server(b); bs != nil {
			bs.mu.Lock()
			delete(bs.backups, key)
			delete(bs.disk, key)
			bs.mu.Unlock()
		}
	}
}

// Evict removes key entirely (used for clean objects whose canonical
// copy lives in the RSDS). It is a local decision of the cacheAgent;
// only coordinator bookkeeping is charged.
func (c *Cluster) Evict(key string) error {
	p, ok := c.placeDelete(key)
	if !ok {
		return ErrNotFound
	}
	c.dropLocal(p, key)
	return nil
}
