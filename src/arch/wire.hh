/**
 * @file
 * The retimed wire layer: every cross-endpoint interaction in the
 * machine (ICN messages, flow-control credits, instruction
 * broadcasts, barrier releases, collect readbacks) travels as a
 * time-stamped Deliverable between endpoints instead of a direct
 * call into the receiver.
 *
 * Why: giving each interaction its physical latency (ICN hop
 * transfer time, broadcast bus time) instead of letting a sender push
 * into the receiver's mailbox and poll its state at the send tick
 * keeps every endpoint's state private to it, so the only coupling
 * between components is the timed deliverable stream.  Credits and
 * collect readbacks travel in one
 *
 *     lag = min(broadcast time, ICN hop transfer time)
 *
 * and no deliverable's latency is below it, which also makes lag the
 * window width of the fault-run loop (SnapMachine::runWindowed).
 *
 * Determinism: each endpoint drains its pending heap in the
 * canonical order (when, kind, sender, senderSeq).  senderSeq is a
 * per-sender monotone counter, so the same-tick apply order is a pure
 * function of simulated history, not of the order events happened to
 * be scheduled in.  The drain itself runs as a wire-class event,
 * which the event queue orders ahead of all normal events at the
 * same tick.
 */

#ifndef SNAP_ARCH_WIRE_HH
#define SNAP_ARCH_WIRE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "arch/message.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "runtime/results.hh"
#include "sim/event_queue.hh"

namespace snap
{

/** Instruction entry in the dual-port instruction queue. */
struct QueuedInstr
{
    Instruction instr;
    std::uint16_t seq = 0;
};

/** What a deliverable does on arrival.  The enum order is the
 *  canonical same-tick apply order — part of the machine's
 *  determinism contract, do not reorder. */
enum class WireKind : std::uint8_t
{
    IcnMsg = 0,     ///< activation message into a (cluster, dim) queue
    IcnCredit,      ///< flow-control credit back to the sending CU
    Instr,          ///< SCP broadcast landing in an instruction queue
    BarrierRelease, ///< SCP barrier-release broadcast
    InstrCredit,    ///< instruction-queue space freed, back to the SCP
    CollectReady,   ///< collect buffer shipped up to the SCP
};

/** Canonical apply order at equal ticks: (when, kind, sender,
 *  senderSeq).  Shared by deliverables and the tuned heap's slots. */
template <typename A, typename B>
bool
canonicalBefore(const A &a, const B &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    if (a.sender != b.sender)
        return a.sender < b.sender;
    return a.senderSeq < b.senderSeq;
}

/** One in-flight cross-endpoint interaction. */
struct Deliverable
{
    Tick when = 0;
    WireKind kind = WireKind::IcnMsg;
    std::uint32_t receiver = 0;   ///< endpoint id (unused by a broadcast)
    std::uint32_t sender = 0;     ///< endpoint id
    std::uint64_t senderSeq = 0;  ///< per-sender monotone stamp

    /** IcnMsg: arrival dimension; IcnCredit: link dimension. */
    std::uint8_t dim = 0;
    /** IcnCredit: the crediting cluster's field along dim. */
    std::uint8_t nbField = 0;

    ActivationMessage msg;        ///< IcnMsg payload
    QueuedInstr qi;               ///< Instr payload
    ClusterId cluster = 0;        ///< InstrCredit / CollectReady origin
    std::uint16_t collectSeq = 0; ///< CollectReady instruction seq
    CollectResult collect;        ///< CollectReady payload

    bool before(const Deliverable &o) const
    {
        return canonicalBefore(*this, o);
    }
};

/**
 * The machine's wire fabric.  Endpoints are the clusters
 * (0..numClusters-1) and the controller (endpoint numClusters).
 * Each endpoint owns a pending min-heap of deliverables plus one
 * persistent wire-class pump event on the machine's queue; the pump
 * fires at the earliest pending tick and applies everything due.
 *
 * A broadcast (the SCP's global bus) is staged once for every
 * endpoint but its sender and lands in one wire-class event, as the
 * bus lands it in one transaction.  That event applies it to the
 * receivers in id order, each one first applying its own same-tick
 * deliverables that sort before it, so every endpoint still sees the
 * canonical order.  A receiver's pump is never scheduled at a tick a
 * pending broadcast covers: the broadcast event drains that tick for
 * it and re-arms the pump.
 */
class Wire
{
  public:
    /** Apply callback.  It may consume the payload of a point-to-point
     *  deliverable; every receiver of a broadcast is handed the same
     *  object, so broadcast payloads must be left intact. */
    using Apply = std::function<void(Deliverable &)>;

    Wire(std::uint32_t num_endpoints, EventQueue &eq, Tick lag,
         bool seed_hot_path = false)
        : eq_(eq), lag_(lag), seedHeap_(seed_hot_path),
          eps_(num_endpoints),
          bcastEv_(std::make_unique<EventFunctionWrapper>(
              [this] { broadcastFire(); }, "wire.broadcast"))
    {
        snap_assert(lag > 0, "wire lag must be positive");
        bcastEv_->setWireClass();
    }

    /** Minimum deliverable latency (see the file comment). */
    Tick lag() const { return lag_; }

    /** Register endpoint @p ep. */
    void
    bindEndpoint(std::uint32_t ep, Apply apply)
    {
        Endpoint &e = eps_.at(ep);
        e.apply = std::move(apply);
        e.pump = std::make_unique<EventFunctionWrapper>(
            [this, ep] { pumpFire(ep); }, "wire.pump");
        e.pump->setWireClass();
        e.heap.clear();
        e.dheap.clear();
        e.pool.clear();
        e.freeSlots.clear();
        e.pumpAt = 0;
    }

    /** Stage a deliverable into its receiver's pending heap. */
    void
    send(Deliverable &&d)
    {
        snap_assert(d.receiver < eps_.size(), "wire endpoint %u",
                    d.receiver);
        Endpoint &e = eps_[d.receiver];
        const std::uint32_t ep = d.receiver;
        const Tick when = d.when;
        if (seedHeap_) {
            e.dheap.push_back(std::move(d));
            std::push_heap(e.dheap.begin(), e.dheap.end(), dheapCmp);
        } else {
            Slot s;
            s.when = d.when;
            s.senderSeq = d.senderSeq;
            s.sender = d.sender;
            s.kind = d.kind;
            s.idx = poolPut(e, std::move(d));
            e.heap.push_back(s);
            std::push_heap(e.heap.begin(), e.heap.end(), heapCmp);
        }
        armPump(ep, when);
    }

    /**
     * Stage @p d once for every endpoint but d.sender.  The bus
     * carries one transaction at a time from one master: broadcasts
     * are staged in canonical order, all by the same sender.
     */
    void
    broadcast(Deliverable &&d)
    {
        snap_assert(d.sender < eps_.size(), "wire endpoint %u",
                    d.sender);
        snap_assert(bcasts_.empty() ||
                        (bcasts_.back().sender == d.sender &&
                         bcasts_.back().before(d)),
                    "broadcast staged out of bus order");
        const Tick when = d.when;
        // Receivers' pumps already due at this tick hand it over to
        // the broadcast event.
        for (std::uint32_t ep = 0; ep < eps_.size(); ++ep) {
            Endpoint &e = eps_[ep];
            if (ep != d.sender && e.pump->scheduled() &&
                e.pumpAt == when)
                eq_.deschedule(e.pump.get());
        }
        bcasts_.push_back(std::move(d));
        if (!bcastEv_->scheduled())
            eq_.schedule(bcastEv_.get(), when);
    }

    /** True when nothing is in flight anywhere. */
    bool
    empty() const
    {
        if (!bcasts_.empty())
            return false;
        for (const auto &e : eps_)
            if (!e.heap.empty() || !e.dheap.empty())
                return false;
        return true;
    }

    /** Drop all in-flight deliverables and deschedule the pumps and
     *  the broadcast event (wedged run teardown / repair). */
    void
    clear()
    {
        for (auto &e : eps_) {
            e.heap.clear();
            e.dheap.clear();
            e.pool.clear();
            e.freeSlots.clear();
            if (e.pump && e.pump->scheduled())
                eq_.deschedule(e.pump.get());
        }
        bcasts_.clear();
        if (bcastEv_->scheduled())
            eq_.deschedule(bcastEv_.get());
    }

  private:
    /**
     * Heap node: the canonical sort key plus a pool index.  A
     * Deliverable is 200 bytes (three payload variants inline), so
     * sifting whole objects through push_heap/pop_heap dominated the
     * wire's host cost; the heap moves these 24-byte slots instead
     * and the payload stays put in a pooled slab.
     */
    struct Slot
    {
        Tick when;
        std::uint64_t senderSeq;
        std::uint32_t sender;
        std::uint32_t idx;        ///< pool slot holding the payload
        WireKind kind;

        bool before(const Slot &o) const
        {
            return canonicalBefore(*this, o);
        }
    };

    struct Endpoint
    {
        std::vector<Slot> heap;         ///< min-heap by before()
        /** Payload slab.  A deque, not a vector: a drain applies a
         *  deliverable straight out of its slot, and the receiver's
         *  callback may stage new same-endpoint traffic mid-apply —
         *  deque growth never relocates the slot being applied. */
        std::deque<Deliverable> pool;
        std::vector<std::uint32_t> freeSlots;
        /** Seed hot path: a min-heap of whole deliverables, sifting
         *  the full 200-byte objects on every push/pop. */
        std::vector<Deliverable> dheap;
        std::unique_ptr<EventFunctionWrapper> pump;
        Tick pumpAt = 0;
        Apply apply;
    };

    static bool
    heapCmp(const Slot &a, const Slot &b)
    {
        // std::push_heap builds a max-heap; invert for min-first.
        return b.before(a);
    }

    static bool
    dheapCmp(const Deliverable &a, const Deliverable &b)
    {
        return b.before(a);
    }

    static std::uint32_t
    poolPut(Endpoint &e, Deliverable &&d)
    {
        if (e.freeSlots.empty()) {
            e.pool.push_back(std::move(d));
            return static_cast<std::uint32_t>(e.pool.size() - 1);
        }
        const std::uint32_t idx = e.freeSlots.back();
        e.freeSlots.pop_back();
        // Move-assign into the parked slot: its payload vectors keep
        // their capacity, so the steady state stops allocating.
        e.pool[idx] = std::move(d);
        return idx;
    }

    /** True when a pending broadcast lands on @p ep at @p when. */
    bool
    broadcastCovers(std::uint32_t ep, Tick when) const
    {
        for (const Deliverable &b : bcasts_)
            if (b.when == when && b.sender != ep)
                return true;
        return false;
    }

    /** Have @p ep's pump fire by @p when, unless a broadcast event
     *  drains that tick for it. */
    void
    armPump(std::uint32_t ep, Tick when)
    {
        Endpoint &e = eps_[ep];
        if (e.pump->scheduled() && e.pumpAt <= when)
            return;
        if (broadcastCovers(ep, when))
            return;
        eq_.reschedule(e.pump.get(), when);
        e.pumpAt = when;
    }

    /**
     * Apply @p ep's deliverables due at @p now in canonical order —
     * all of them, or only those sorting before @p bound.
     */
    void
    drainDue(std::uint32_t ep, Tick now, const Deliverable *bound)
    {
        Endpoint &e = eps_[ep];
        if (seedHeap_) {
            while (!e.dheap.empty() && e.dheap.front().when == now &&
                   (!bound || e.dheap.front().before(*bound))) {
                std::pop_heap(e.dheap.begin(), e.dheap.end(),
                              dheapCmp);
                Deliverable d = std::move(e.dheap.back());
                e.dheap.pop_back();
                e.apply(d);
            }
            return;
        }
        while (!e.heap.empty() && e.heap.front().when == now &&
               (!bound || canonicalBefore(e.heap.front(), *bound))) {
            std::pop_heap(e.heap.begin(), e.heap.end(), heapCmp);
            const std::uint32_t idx = e.heap.back().idx;
            e.heap.pop_back();
            // Apply straight out of the pool slot — no stack copy.
            // Mid-apply sends to this endpoint reuse other free
            // slots or grow the deque; neither touches pool[idx],
            // which is only parked after the apply returns.
            e.apply(e.pool[idx]);
            e.freeSlots.push_back(idx);
        }
    }

    /** After @p ep's tick @p now is drained: arm its pump for the
     *  next pending deliverable. */
    void
    rearm(std::uint32_t ep, Tick now)
    {
        const Endpoint &e = eps_[ep];
        if (e.heap.empty() && e.dheap.empty())
            return;
        const Tick next =
            seedHeap_ ? e.dheap.front().when : e.heap.front().when;
        snap_assert(next > now, "wire pump missed a deliverable");
        armPump(ep, next);
    }

    void
    pumpFire(std::uint32_t ep)
    {
        const Tick now = eq_.curTick();
        drainDue(ep, now, nullptr);
        rearm(ep, now);
    }

    void
    broadcastFire()
    {
        const Tick now = eq_.curTick();
        snap_assert(!bcasts_.empty() && bcasts_.front().when == now,
                    "wire broadcast event without a broadcast due");
        const std::uint32_t master = bcasts_.front().sender;
        while (!bcasts_.empty() && bcasts_.front().when == now) {
            // Applied in place: an apply that stages a later
            // broadcast appends to the deque, which leaves the
            // front where it is.
            Deliverable &b = bcasts_.front();
            for (std::uint32_t ep = 0; ep < eps_.size(); ++ep) {
                if (ep == master)
                    continue;
                drainDue(ep, now, &b);
                eps_[ep].apply(b);
            }
            bcasts_.pop_front();
        }
        for (std::uint32_t ep = 0; ep < eps_.size(); ++ep) {
            if (ep == master)
                continue;
            drainDue(ep, now, nullptr);
            rearm(ep, now);
        }
        if (!bcasts_.empty() && !bcastEv_->scheduled())
            eq_.schedule(bcastEv_.get(), bcasts_.front().when);
    }

    EventQueue &eq_;
    Tick lag_;
    bool seedHeap_;
    std::vector<Endpoint> eps_;
    /** Staged broadcasts, in bus order. */
    std::deque<Deliverable> bcasts_;
    std::unique_ptr<EventFunctionWrapper> bcastEv_;
};

} // namespace snap

#endif // SNAP_ARCH_WIRE_HH
