#include "migrate/migrator.hpp"

#include <algorithm>
#include <cstring>

namespace clouds::migrate {

Migrator::Migrator(ra::Node& node, dsm::DsmClientPartition& dsm, sched::LoadTable* table,
                   net::NodeId name_server, Options options, Hooks hooks)
    : node_(node),
      dsm_(dsm),
      table_(table),
      sync_(node, nullptr),
      names_(node, name_server),
      options_(options),
      hooks_(std::move(hooks)) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_started_ = &metrics.counter(node_.name() + "/migrate/started");
  m_committed_ = &metrics.counter(node_.name() + "/migrate/committed");
  m_aborted_ = &metrics.counter(node_.name() + "/migrate/aborted");
  m_in_doubt_ = &metrics.counter(node_.name() + "/migrate/in_doubt");
  m_forwards_ = &metrics.counter(node_.name() + "/migrate/forwards_installed");
  fsm_.onTransition([this](State s) {
    event(std::string("state ") + stateName(s));
    if (state_hook_) state_hook_(s);
  });
  node_.onCrashHook([this] {
    // The node layer kills the loop IsiBa (and any in-flight migrateObject
    // thread) by RAII unwinding; protocol state is volatile. The durable
    // outcome of an interrupted handoff is decided solely by the source
    // store's header page + 2PC log, not by anything we hold here.
    loop_ = nullptr;
    ++epoch_;
    fsm_.forceIdle();
    event("crash");
  });
  node_.onRestartHook([this] { start(); });
  start();
}

void Migrator::start() {
  if (!options_.enabled || table_ == nullptr) return;
  loop_ = &node_.spawnIsiBa("migrate.daemon", [this](sim::Process& self) { loop(self); });
}

void Migrator::loop(sim::Process& self) {
  armTick(options_.phase > sim::kZero ? options_.phase : options_.interval);
  for (;;) {
    self.block();  // woken by the daemon tick
    const bool attempted = tick(self);
    armTick(attempted ? options_.cooldown : options_.interval);
  }
}

void Migrator::armTick(sim::Duration delay) {
  const std::uint64_t epoch = epoch_;
  sim::Process* loop = loop_;
  node_.simulation().scheduleDaemon(delay, [this, epoch, loop] {
    // A tick armed before a crash must not wake the post-restart loop.
    if (epoch == epoch_ && loop != nullptr && loop == loop_) loop->wake();
  });
}

bool Migrator::tick(sim::Process& self) {
  if (fsm_.state() != State::idle) return false;
  const sim::TimePoint now = node_.simulation().now();
  const sched::LoadTable::Entry* me = table_->find(node_.id());
  if (me == nullptr) return false;
  if (me->effectiveLoad() < options_.high_watermark) return rebalanceTick(self, *me, now);
  // Pressure is relative: only the hottest node in view sheds (ties break
  // to the higher id, matching this check on the other side). A node whose
  // backlog merely trails a hotter peer would otherwise race it for the
  // same objects — two daemons deadlocking on the same segment locks — or
  // churn an object between peers while the real hotspot stays saturated.
  for (const auto& [peer, e] : table_->entries()) {
    if (e.self || table_->stale(e, now)) continue;
    const std::uint64_t peer_load = e.effectiveLoad();
    if (peer_load > me->effectiveLoad() ||
        (peer_load == me->effectiveLoad() && peer > node_.id())) {
      return false;
    }
  }
  const auto cold = table_->coldestPeerBelow(
      options_.low_watermark, now, [this, now](net::NodeId peer) {
        const auto it = last_shipped_.find(peer);
        return it == last_shipped_.end() || now - it->second >= options_.target_backoff;
      });
  if (!cold.has_value()) return false;
  const net::NodeId target = hooks_.data_home_of ? hooks_.data_home_of(*cold) : net::kNoNode;
  if (target == net::kNoNode) return false;  // diskless peer cannot adopt segments
  if (!hooks_.pick_hot) return false;
  const auto hot = hooks_.pick_hot(options_.min_heat);
  if (!hot.has_value()) return false;
  if (ra::sysnameHome(*hot) == target) return false;  // already lives there
  if (migrateObject(self, *hot, target).ok()) {
    last_shipped_[*cold] = node_.simulation().now();
  }
  return true;
}

// The quiet-side counterpart of the pressure path: once load subsides, a
// node left homing a pile of hot objects (dogpiled there while it was the
// one cold peer) re-spreads them. Only strictly-improving moves are taken —
// the target's advertised pile plus the object in flight must still be
// smaller than ours — so two idle nodes can never trade objects back and
// forth: every ship lowers the sum of squared pile sizes, and a node down
// to one object never sheds it.
bool Migrator::rebalanceTick(sim::Process& self, const sched::LoadTable::Entry& me,
                             sim::TimePoint now) {
  if (!options_.rebalance) return false;
  if (me.effectiveLoad() > options_.low_watermark) return false;  // not quiet yet
  if (!hooks_.pick_spread || !hooks_.homed_hot_count || !hooks_.data_home_of) return false;
  const net::NodeId my_home = hooks_.data_home_of(node_.id());
  if (my_home == net::kNoNode) return false;
  const auto pile =
      static_cast<std::uint32_t>(hooks_.homed_hot_count(options_.min_heat, my_home));
  if (pile < 2) return false;
  const auto cold = table_->coldestPeerBelow(
      options_.low_watermark, now, [this, now, pile](net::NodeId peer) {
        const auto it = last_shipped_.find(peer);
        if (it != last_shipped_.end() && now - it->second < options_.target_backoff) {
          return false;
        }
        const net::NodeId peer_home = hooks_.data_home_of(peer);
        if (peer_home == net::kNoNode) return false;
        const sched::LoadTable::Entry* e = table_->find(peer);
        if (e == nullptr) return false;
        // The peer's gossiped homed_hot misses objects it stores but never
        // executes: an adopted object keeps being invoked from HERE, so its
        // heat lives in OUR runtime and the peer advertises zero forever.
        // Fold in our local count of hot objects homed on the peer — max,
        // not sum, since an object invoked from both sides would otherwise
        // be double-counted. Without this, one cold peer swallows the whole
        // pile one backoff period at a time (1-3-0 instead of 2-1-1).
        const std::size_t local = hooks_.homed_hot_count(options_.min_heat, peer_home);
        const std::size_t known = std::max<std::size_t>(e->report.homed_hot, local);
        return known + 1 < pile;
      });
  if (!cold.has_value()) return false;
  const net::NodeId target = hooks_.data_home_of(*cold);
  const auto candidate = hooks_.pick_spread(options_.min_heat);
  if (!candidate.has_value()) return false;
  if (ra::sysnameHome(*candidate) == target) return false;
  event("rebalance pile " + std::to_string(pile) + " -> node " + std::to_string(target));
  if (migrateObject(self, *candidate, target).ok()) {
    last_shipped_[*cold] = node_.simulation().now();
  }
  return true;
}

Result<Sysname> Migrator::migrateObject(sim::Process& self, const Sysname& header,
                                        net::NodeId target) {
  if (!ra::isSegmentName(header)) {
    return makeError(Errc::bad_argument, "not an object sysname: " + header.toString());
  }
  if (target == net::kNoNode) return makeError(Errc::bad_argument, "no target data server");
  const net::NodeId source = ra::sysnameHome(header);
  if (target == source) {
    return makeError(Errc::bad_argument, "object already homed on node " + std::to_string(target));
  }
  if (!fsm_.begin()) return makeError(Errc::busy, "a migration is already in flight");
  ++*m_started_;
  const std::uint64_t tx = (static_cast<std::uint64_t>(node_.id()) << 32) |
                           (0x80000000ULL | (++seq_ & 0x7fffffffULL));
  event("begin " + header.toString() + " -> node " + std::to_string(target));

  bool draining = false;
  bool locked = false;
  bool prepared = false;
  std::vector<Sysname> created;
  // Unwind everything this attempt touched, in reverse order, restoring
  // local ownership. Safe at any point before the commit decision: the
  // source header page is only replaced by a committed 2PC flip.
  auto fail = [&](Error err) -> Result<Sysname> {
    if (prepared) (void)sendDecision(self, source, tx, /*commit=*/false);
    for (const Sysname& s : created) {
      dsm_.dropSegment(s);
      (void)dsm_.destroySegment(self, s);
    }
    if (locked) (void)sync_.unlockAll(self, source, tx);
    if (draining) hooks_.end_drain(header);
    ++*m_aborted_;
    event("abort: " + err.toString());
    fsm_.abort();
    fsm_.reset();
    return err;
  };

  // ---- pre-flight: is the candidate still ours? A peer that served this
  // object before it migrated away still holds heat under the dead name;
  // probing the header page first turns that case into a cheap no-op.
  // Draining first instead would block real invocations (still entering
  // through the forwarding chain) for the whole drain_timeout.
  {
    dsm_.dropSegment(header);
    auto page_r = dsm_.resolvePage(self, {header, 0}, ra::Access::read);
    if (!page_r.ok()) {
      if (page_r.error().code == Errc::not_found && hooks_.forget_heat) {
        hooks_.forget_heat(header);
      }
      return fail(page_r.error());
    }
    if (isForwardPage(ByteSpan(page_r.value().data, ra::kPageSize))) {
      if (hooks_.forget_heat) hooks_.forget_heat(header);
      return fail(makeError(Errc::already_exists, "object was already migrated away"));
    }
  }

  // ---- draining: stop new local invocations, wait out in-flight ones ----
  if (!hooks_.begin_drain || !hooks_.begin_drain(header)) {
    return fail(makeError(Errc::busy, "object is already draining"));
  }
  draining = true;
  {
    auto r = hooks_.wait_quiesced(self, header, options_.drain_timeout);
    if (!r.ok()) return fail(r.error());
  }
  // Exclusive locks keep remote transactional writers out of the payload
  // segments for the whole transfer window (lease expiry reclaims them if
  // this node dies mid-flight).
  {
    auto desc_r = [&]() -> Result<obj::ObjectDescriptor> {
      // Fresh read of the authoritative header page (drop any cached frame
      // first; it may predate a concurrent migration).
      dsm_.dropSegment(header);
      CLOUDS_TRY_ASSIGN(page, dsm_.resolvePage(self, {header, 0}, ra::Access::read));
      ByteSpan image(page.data, ra::kPageSize);
      if (isForwardPage(image)) {
        return makeError(Errc::already_exists, "object was already migrated away");
      }
      return obj::ObjectDescriptor::decode(image);
    }();
    if (!desc_r.ok()) {
      // A tombstone or vanished header means the candidate already migrated
      // away; its heat was earned under a dead name. Forget it so the next
      // tick picks a live object instead of re-probing this one forever.
      const Errc code = desc_r.error().code;
      if ((code == Errc::already_exists || code == Errc::not_found) && hooks_.forget_heat) {
        hooks_.forget_heat(header);
      }
      return fail(desc_r.error());
    }
    const obj::ObjectDescriptor desc = std::move(desc_r).value();

    for (const Sysname& seg : {desc.data_seg, desc.pheap_seg}) {
      auto r = sync_.lock(self, seg, dsm::LockMode::exclusive, tx);
      if (!r.ok()) return fail(r.error());
      locked = true;
    }
    // The descriptor above was read BEFORE the locks were granted. Gossip
    // views diverge under staleness, so a rival migrator on another node can
    // pass the hottest-in-view guard too, commit its flip while we block in
    // the lock queue, and leave us holding a stale descriptor — proceeding
    // would re-ship dead segments and overwrite its durable ForwardRecord,
    // splitting ownership. Re-probe the header under the locks and abort
    // unless it still shows the exact pre-flip descriptor we locked.
    {
      dsm_.dropSegment(header);
      auto page = dsm_.resolvePage(self, {header, 0}, ra::Access::read);
      if (!page.ok()) {
        if (page.error().code == Errc::not_found && hooks_.forget_heat) {
          hooks_.forget_heat(header);
        }
        return fail(page.error());
      }
      ByteSpan image(page.value().data, ra::kPageSize);
      if (isForwardPage(image)) {
        if (hooks_.forget_heat) hooks_.forget_heat(header);
        return fail(makeError(Errc::already_exists,
                              "object migrated away while awaiting segment locks"));
      }
      auto relook = obj::ObjectDescriptor::decode(image);
      if (!relook.ok()) return fail(relook.error());
      if (relook.value().data_seg != desc.data_seg ||
          relook.value().pheap_seg != desc.pheap_seg) {
        return fail(makeError(Errc::busy,
                              "object descriptor changed while awaiting segment locks"));
      }
    }
    // Flush + tear down the local activation so the source store holds the
    // object's authoritative bytes.
    {
      auto r = hooks_.flush_deactivate(self, header);
      if (!r.ok()) return fail(r.error());
    }
    if (!fsm_.drained()) return fail(makeError(Errc::internal, "fsm refused drained()"));

    // ---- shipping: mint segments on the target, copy through DSM ----
    auto mint = [&](std::uint64_t length) -> Result<Sysname> {
      CLOUDS_TRY_ASSIGN(name, dsm_.createSegment(self, target, length));
      created.push_back(name);
      return name;
    };
    auto nd_r = mint(desc.data_size);
    if (!nd_r.ok()) return fail(nd_r.error());
    auto np_r = mint(desc.pheap_size);
    if (!np_r.ok()) return fail(np_r.error());
    auto nh_r = mint(ra::kPageSize);
    if (!nh_r.ok()) return fail(nh_r.error());
    const Sysname nd = nd_r.value();
    const Sysname np = np_r.value();
    const Sysname nh = nh_r.value();

    {
      auto r = copySegment(self, desc.data_seg, nd, desc.data_size);
      if (r.ok()) r = copySegment(self, desc.pheap_seg, np, desc.pheap_size);
      if (!r.ok()) return fail(r.error());
    }
    // New header: the old descriptor re-pointed at the adopted segments
    // (code is immutable and shared; it does not move).
    obj::ObjectDescriptor new_desc = desc;
    new_desc.data_seg = nd;
    new_desc.pheap_seg = np;
    {
      auto page = dsm_.resolvePage(self, {nh, 0}, ra::Access::write);
      if (!page.ok()) return fail(page.error());
      const Bytes image = new_desc.encode();
      std::memcpy(page.value().data, image.data(), image.size());
    }
    // The mandatory write-back: the target store becomes durable owner of
    // every shipped byte before the ownership flip is even proposed.
    for (const Sysname& s : {nd, np, nh}) {
      auto r = dsm_.flushSegment(self, s);
      if (!r.ok()) return fail(r.error());
    }
    if (!fsm_.shipped()) return fail(makeError(Errc::internal, "fsm refused shipped()"));

    // ---- committing: 2PC flip of the source header page to a tombstone ----
    ForwardRecord rec;
    rec.generation = fsm_.generation();
    rec.new_header = nh;
    rec.class_name = desc.class_name;
    rec.moves = {{desc.data_seg, nd, desc.data_size}, {desc.pheap_seg, np, desc.pheap_size}};
    auto page_image = rec.encodePage();
    if (!page_image.ok()) return fail(page_image.error());
    {
      auto r = sendPrepare(self, source, tx, {header, 0}, page_image.value());
      if (!r.ok()) {
        // The source may have logged the prepare though its reply was lost;
        // fail() sends the abort decision to resolve the in-doubt entry.
        prepared = true;
        return fail(r.error());
      }
      prepared = true;
    }
    {
      auto r = sendDecision(self, source, tx, /*commit=*/true);
      if (!r.ok()) {
        // Decision undeliverable. Probe the header page: the source either
        // committed (tombstone visible) or still holds the original.
        dsm_.dropSegment(header);
        auto probe = dsm_.resolvePage(self, {header, 0}, ra::Access::read);
        if (probe.ok() && isForwardPage(ByteSpan(probe.value().data, ra::kPageSize))) {
          // Fall through: the flip is durable, finish the handoff.
        } else if (probe.ok()) {
          return fail(makeError(Errc::aborted, "commit decision lost; source kept the object"));
        } else {
          // Source dark: genuinely in doubt. Keep the shipped segments (the
          // source's restart log scan will resolve the prepared flip); only
          // the durable header page decides who owns the object.
          ++*m_in_doubt_;
          event("in doubt: " + r.error().toString());
          if (locked) (void)sync_.unlockAll(self, source, tx);
          hooks_.end_drain(header);
          fsm_.abort();
          fsm_.reset();
          return makeError(Errc::timeout,
                           "migration in doubt: " + r.error().toString());
        }
      }
    }
    if (!fsm_.committed()) return fail(makeError(Errc::internal, "fsm refused committed()"));
    ++*m_committed_;
    event("committed " + header.toString() + " -> " + nh.toString());
    // The object's work follows it to the target, but the target's own
    // gossip won't say so until its next report. Charge the handoff to our
    // local view (same inflight correction the placement chooser uses) so
    // the next tick doesn't dogpile every hot object onto one cold peer.
    if (table_ != nullptr) table_->notePlacement(target);

    // ---- adopted: publish, GC, release ----
    // Our own cached header frame still holds the old descriptor (the
    // committing server excludes the committer from invalidation).
    dsm_.dropSegment(header);
    {
      auto r = names_.forward(self, header, nh);
      if (r.ok()) {
        ++*m_forwards_;
      } else {
        // Best-effort: late lookups still chase the durable header stub.
        event("forward entry not installed: " + r.error().toString());
      }
    }
    // Old payload segments are unreachable behind the tombstone; reclaim
    // them (best-effort — a crash here leaks store space, never bytes).
    for (const Sysname& s : {desc.data_seg, desc.pheap_seg}) {
      dsm_.dropSegment(s);
      (void)dsm_.destroySegment(self, s);
    }
    // Relinquish the copy frames too: they are clean (flushed above), and a
    // source that kept them would keep advertising cache locality for an
    // object it just gave away — herding the scheduler right back here.
    for (const Sysname& s : {nd, np, nh}) dsm_.dropSegment(s);
    (void)sync_.unlockAll(self, source, tx);
    hooks_.end_drain(header);
    if (hooks_.committed) hooks_.committed(header, nh);
    fsm_.finish();
    return nh;
  }
}

Result<void> Migrator::copySegment(sim::Process& self, const Sysname& from, const Sysname& to,
                                   std::uint64_t length) {
  const auto pages = static_cast<std::uint32_t>((length + ra::kPageSize - 1) / ra::kPageSize);
  Bytes buf(ra::kPageSize);
  for (std::uint32_t i = 0; i < pages; ++i) {
    // A PageHandle dies at the next block, and resolving the destination
    // page may block on its home server — stage through a local buffer.
    CLOUDS_TRY_ASSIGN(src, dsm_.resolvePage(self, {from, i}, ra::Access::read));
    std::memcpy(buf.data(), src.data, ra::kPageSize);
    CLOUDS_TRY_ASSIGN(dst, dsm_.resolvePage(self, {to, i}, ra::Access::write));
    std::memcpy(dst.data, buf.data(), ra::kPageSize);
  }
  return okResult();
}

Result<void> Migrator::sendPrepare(sim::Process& self, net::NodeId server, std::uint64_t txid,
                                   const ra::PageKey& key, const Bytes& page) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(dsm::Op::tx_prepare));
  e.u64(txid);
  e.u32(1);
  dsm::encodePageKey(e, key);
  e.bytes(page);
  CLOUDS_TRY_ASSIGN(reply,
                    node_.ratp().transact(self, server, net::kPortCommit, std::move(e).take()));
  Decoder d(reply);
  return dsm::decodeStatus(d, "tx_prepare");
}

Result<void> Migrator::sendDecision(sim::Process& self, net::NodeId server, std::uint64_t txid,
                                    bool commit) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(commit ? dsm::Op::tx_commit : dsm::Op::tx_abort));
  e.u64(txid);
  // Same delivery contract as TxnRuntime: a commit decision must survive the
  // participant's crash+reboot window; aborts are best-effort (lease expiry
  // and the in-doubt scan mop up).
  net::RatpOptions opts;
  opts.max_retries =
      commit ? node_.cost().txn_decision_retries : node_.cost().txn_cleanup_retries;
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server, net::kPortCommit,
                                                 std::move(e).take(), opts));
  Decoder d(reply);
  return dsm::decodeStatus(d, commit ? "tx_commit" : "tx_abort");
}

void Migrator::event(std::string what) {
  node_.simulation().trace(node_.name(), "migrate", what);
  events_.push_back(std::move(what));
}

}  // namespace clouds::migrate
