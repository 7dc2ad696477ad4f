// Directed link channel between two routers.
//
// A flit sent during router cycle t occupies the link (LT stage) during
// t+1 and is delivered to the downstream input register at the start of
// t+2 — giving the paper's 2-cycle per-hop latency for the single-stage
// (SA/ST + LT) router pipelines.
//
// The channel also carries credits in the reverse direction with one
// cycle of return latency.  Credit-free channels (Flit-Bless / SCARAB
// links) are constructed with `kUnlimitedCredits`.
//
// The three pipeline registers (staged, in flight, arrived) live in two
// flit slots.  The network takes every arrival before any router sends
// (DESIGN.md §5), so the staged and arrived registers are never full at
// once and share a slot; advance() moves the pipeline by flipping which
// slot is which and copies no flit.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/flit.hpp"
#include "snapshot/serialize.hpp"

namespace dxbar {

inline constexpr int kUnlimitedCredits = -1;

class Channel {
 public:
  /// `credits` is the downstream buffer capacity backing this link, or
  /// kUnlimitedCredits for bufferless (never-blocking) links.
  explicit Channel(int credits = kUnlimitedCredits)
      : credits_(credits), limited_(credits != kUnlimitedCredits) {}

  /// Virtual-channel variant: `num_vcs` independent credit pools of
  /// `per_vc_credits` each (VC baseline router).  The aggregate
  /// `credits()`/`can_send()` interface keeps working and equals the
  /// pool sum; per-VC admission uses the *_vc methods.
  Channel(int num_vcs, int per_vc_credits)
      : credits_(num_vcs * per_vc_credits),
        limited_(true),
        vc_credits_(static_cast<std::size_t>(num_vcs), per_vc_credits),
        vc_pending_(static_cast<std::size_t>(num_vcs), 0) {}

  [[nodiscard]] int num_vcs() const noexcept {
    return static_cast<int>(vc_credits_.size());
  }

  /// A credit is available on the given VC and the link is free.
  [[nodiscard]] bool can_send_vc(int vc) const noexcept {
    if (has(kStaged) || stop_) return false;
    return vc_credits_[static_cast<std::size_t>(vc)] > 0;
  }

  /// Stage a flit on a specific VC; consumes one credit of that VC.
  void send_vc(const Flit& f, int vc) {
    assert(can_send_vc(vc));
    --vc_credits_[static_cast<std::size_t>(vc)];
    --credits_;
    stage(f).vc = static_cast<std::uint8_t>(vc);
    ++total_sends_;
    touch();
  }

  /// Downstream freed a slot of the given VC.
  void return_credit_vc(int vc) noexcept {
    ++vc_pending_[static_cast<std::size_t>(vc)];
    ++pending_credits_;
    touch();
  }

  // ---- upstream (sender) side ----------------------------------------

  /// True when the sender holds a credit (always true when unlimited),
  /// the receiver has not asserted stop, and no flit was already sent
  /// this cycle.
  [[nodiscard]] bool can_send() const noexcept {
    if (has(kStaged) || stop_) return false;
    return !limited_ || credits_ > 0;
  }

  /// Stage a flit for link traversal; consumes one credit when limited.
  /// Asserts link/credit availability but not `!stop_`: the DXbar /
  /// Unified liveness valves (must-win, stall-escape) legitimately send
  /// into a stopped receiver, where the arrival becomes a must-win flit.
  void send(const Flit& f) {
    assert(can_send_ignoring_stop());
    if (limited_) --credits_;
    stage(f);
    ++total_sends_;
    touch();
  }

  /// Hop-count bump applied in place on the just-staged flit, so the
  /// router send path copies each departing flit exactly once.
  void bump_staged_hops() noexcept {
    assert(has(kStaged));
    ++flits_[stage_].hops;
  }

  /// Flits ever sent over this link (utilization accounting).
  [[nodiscard]] std::uint64_t total_sends() const noexcept {
    return total_sends_;
  }

  [[nodiscard]] int credits() const noexcept { return credits_; }

  // ---- downstream (receiver) side -------------------------------------

  /// A flit was delivered this cycle.
  [[nodiscard]] bool has_arrival() const noexcept { return has(kArrived); }

  /// The flit delivered this cycle; requires has_arrival().  The network
  /// copies it straight into the downstream input register, then calls
  /// clear_arrival() — before any router of the cycle sends.
  [[nodiscard]] const Flit& arrival() const noexcept {
    assert(has(kArrived));
    return flits_[stage_];
  }
  void clear_arrival() noexcept { valid_ &= ~kArrived; }

  /// The flit delivered this cycle, if any, taken out of the channel
  /// (tests drive standalone channels through this).
  [[nodiscard]] std::optional<Flit> take_arrival() noexcept {
    if (!has(kArrived)) return std::nullopt;
    clear_arrival();
    return flits_[stage_];
  }

  /// Downstream frees a buffer slot (or forwarded the flit without ever
  /// buffering it); the credit becomes usable upstream next cycle.
  /// Gated on the immutable limited_ flag, NOT on credits_: on a pinned
  /// boundary channel this runs in the receiver's shard while the
  /// sender's shard may be decrementing credits_ in send(), so the
  /// receiver side must not read the live counter.
  void return_credit() noexcept {
    if (limited_) {
      ++pending_credits_;
      touch();
    }
  }

  /// On/off flow control (DXbar/Unified): the receiver asserts stop while
  /// its input FIFO is full.  Takes effect upstream one cycle later, so
  /// up to two in-flight flits can still arrive at a full FIFO — the
  /// router's deflection escape valve absorbs exactly that race.
  void set_stop(bool stop) noexcept {
    if (stop_pending_ != stop) {
      stop_pending_ = stop;
      touch();
    }
  }

  /// Sendability ignoring the stop signal.  Used by the deflection
  /// escape valve and the stall-escape override: sending into a stopped
  /// (full) receiver is *safe* — the arrival becomes a must-win flit
  /// there — stop is only a congestion heuristic, so liveness paths
  /// may override it.
  [[nodiscard]] bool can_send_ignoring_stop() const noexcept {
    if (has(kStaged)) return false;
    return !limited_ || credits_ > 0;
  }

  // ---- per-cycle advance, called once by the network --------------------

  /// Moves the pipeline one cycle: in-flight -> arrived, staged -> in-flight,
  /// pending credit returns -> usable credits.  The in-flight slot becomes
  /// the arrival slot and the staged slot the in-flight one, so the
  /// registers move by an index flip and three valid-bit shifts.
  void advance() noexcept {
    assert(!has(kArrived) && "previous arrival was not consumed");
    stage_ ^= 1;
    valid_ = static_cast<std::uint8_t>((valid_ << 1) & (kInFlight | kArrived));
    if (pending_credits_ != 0) {
      credits_ += pending_credits_;
      pending_credits_ = 0;
    }
    for (std::size_t v = 0; v < vc_credits_.size(); ++v) {
      vc_credits_[v] += vc_pending_[v];
      vc_pending_[v] = 0;
    }
    stop_ = stop_pending_;
  }

  /// Flits currently inside the channel (staged or on the wire).
  [[nodiscard]] int occupancy() const noexcept {
    return (valid_ & 1) + (valid_ >> 1 & 1) + (valid_ >> 2 & 1);
  }

  // ---- active-channel tracking ----------------------------------------
  //
  // The network only advances channels with something to do.  A channel
  // registers itself on the shared active list the moment any mutation
  // (send, credit return, stop-signal change) gives advance() work, and
  // the network delists it once it is quiescent again — advance() is the
  // identity on a quiescent channel, so skipping it is unobservable.
  // Standalone channels (unit tests) have no list and behave as before.

  /// Wire this channel to the owning network's active list.
  void attach_active_list(std::vector<std::uint32_t>* list,
                          std::uint32_t slot) noexcept {
    active_list_ = list;
    slot_ = slot;
  }

  /// Nothing in the pipeline, no credits to post, stop signal latched:
  /// advance() would change no state.
  [[nodiscard]] bool quiescent() const noexcept {
    return valid_ == 0 && pending_credits_ == 0 && stop_ == stop_pending_;
  }

  /// The network delists a quiescent channel during its sweep.
  void mark_delisted() noexcept { listed_ = false; }

  /// Permanently registers this channel on its active list: it is swept
  /// every cycle and never delisted, so touch() is a no-op forever after.
  /// Sharded networks pin every boundary channel (endpoints in different
  /// shards) — both endpoint routers may call send/return_credit/set_stop
  /// concurrently from their own threads, and with the channel pinned
  /// those calls mutate only endpoint-disjoint fields, never the shared
  /// list bookkeeping.  Structural, so not serialized; re-applied by the
  /// network on construction and honoured by load().
  void pin() {
    pinned_ = true;
    touch();
  }
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }

  // ---- snapshot protocol ----------------------------------------------

  void save(SnapshotWriter& w) const {
    w.i32(credits_);
    w.i32(pending_credits_);
    w.u64(vc_credits_.size());
    for (int c : vc_credits_) w.i32(c);
    for (int c : vc_pending_) w.i32(c);
    w.u64(total_sends_);
    w.boolean(stop_);
    w.boolean(stop_pending_);
    // The three registers, in the optional layout of the stream format.
    save_optional_flit(w, register_at(kStaged, stage_));
    save_optional_flit(w, register_at(kInFlight, stage_ ^ 1));
    save_optional_flit(w, register_at(kArrived, stage_));
  }

  /// Restores the channel's mutable state.  The caller must have cleared
  /// the owning active list first: load drops the listed flag and
  /// re-registers iff the restored state is non-quiescent, so the active
  /// list is rebuilt consistently (order is immaterial — channels are
  /// mutually independent and the sweep visits every listed channel).
  void load(SnapshotReader& r) {
    credits_ = r.i32();
    pending_credits_ = r.i32();
    const std::uint64_t nvc = r.count(4);
    if (nvc != vc_credits_.size()) {
      throw SnapshotError("channel VC count mismatch");
    }
    for (int& c : vc_credits_) c = r.i32();
    for (int& c : vc_pending_) c = r.i32();
    total_sends_ = r.u64();
    stop_ = r.boolean();
    stop_pending_ = r.boolean();
    const std::optional<Flit> staged = load_optional_flit(r);
    const std::optional<Flit> in_flight = load_optional_flit(r);
    const std::optional<Flit> arrived = load_optional_flit(r);
    if (staged && arrived) {
      // No step boundary holds both: arrivals are taken before sends.
      throw SnapshotError("channel holds both a staged flit and an arrival");
    }
    stage_ = 0;
    if (staged || arrived) flits_[0] = staged ? *staged : *arrived;
    if (in_flight) flits_[1] = *in_flight;
    valid_ = static_cast<std::uint8_t>((staged ? kStaged : 0) |
                                       (in_flight ? kInFlight : 0) |
                                       (arrived ? kArrived : 0));
    listed_ = false;
    if (pinned_ || !quiescent()) touch();
  }

 private:
  // valid_ bits.  advance() shifts each register's bit one place left.
  static constexpr std::uint8_t kStaged = 1;
  static constexpr std::uint8_t kInFlight = 2;
  static constexpr std::uint8_t kArrived = 4;

  [[nodiscard]] bool has(std::uint8_t reg) const noexcept {
    return (valid_ & reg) != 0;
  }

  /// Writes `f` into the staged register; asserts that this cycle's
  /// arrival, which shares the slot, was already taken.
  Flit& stage(const Flit& f) noexcept {
    assert(!has(kArrived) && "send before the arrival was taken");
    valid_ |= kStaged;
    return flits_[stage_] = f;
  }

  [[nodiscard]] std::optional<Flit> register_at(std::uint8_t reg,
                                                unsigned slot) const {
    if (!has(reg)) return std::nullopt;
    return flits_[slot];
  }

  void touch() {
    if (active_list_ != nullptr && !listed_) {
      listed_ = true;
      active_list_->push_back(slot_);
    }
  }

  int credits_;
  /// Construction-time constant: this channel carries a finite credit
  /// pool.  Receiver-side paths branch on this instead of comparing the
  /// (sender-mutated) credits_ counter against the sentinel.
  bool limited_;
  int pending_credits_ = 0;
  std::vector<int> vc_credits_;  ///< empty unless VC-constructed
  std::vector<int> vc_pending_;
  std::uint64_t total_sends_ = 0;
  std::vector<std::uint32_t>* active_list_ = nullptr;
  std::uint32_t slot_ = 0;
  bool listed_ = false;
  bool pinned_ = false;
  bool stop_ = false;
  bool stop_pending_ = false;
  /// flits_[stage_] holds the staged flit (sent this cycle, ST just
  /// finished) or the arrival (at the downstream input register), never
  /// both; flits_[stage_ ^ 1] holds the flit on the wire (LT stage).
  std::uint8_t stage_ = 0;
  std::uint8_t valid_ = 0;  ///< kStaged | kInFlight | kArrived
  Flit flits_[2] = {};
};

}  // namespace dxbar
