/**
 * @file
 * Per-session marker state with submission-order execution.
 *
 * A session is a sequence of queries sharing marker state — the
 * serving analogue of the applications that "issue multiple programs
 * against persistent marker state" (the parser's per-sentence
 * programs, host-driven resolution loops).  State is kept sparse and
 * partition-independent: a SparseMarkers over global node ids (only
 * the set entries), so a session costs what it holds, can be served
 * by any replica, and converts to a MarkerStore at the checkpoint
 * edge (saveMarkers()).  Each published state is an immutable
 * snapshot behind a shared pointer: the turn holder and the
 * replication pull read it without copying, and the store mutex is
 * held only to swap pointers.
 *
 * Ordering protocol: submitters call admit() (under the engine's
 * admission lock) to draw a per-session sequence number; the worker
 * that dequeues the request calls awaitTurn() before touching the
 * session, then either complete() (publishing the post-run state) or
 * cancel() (timeout/rejection — state unchanged, the sequence hole
 * is skipped so successors are never deadlocked).
 */

#ifndef SNAP_SERVE_SESSION_STORE_HH
#define SNAP_SERVE_SESSION_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "runtime/sparse_markers.hh"

namespace snap
{
namespace serve
{

class SessionStore
{
  public:
    /** An immutable published session state. */
    using Snapshot = std::shared_ptr<const SparseMarkers>;

    /** @p num_nodes sizes each session's marker state (must match
     *  the served knowledge base). */
    explicit SessionStore(std::uint32_t num_nodes)
        : numNodes_(num_nodes),
          empty_(std::make_shared<const SparseMarkers>(num_nodes))
    {}

    /** Draw the next sequence number of session @p id (creating the
     *  session on first use).  Call under the engine admission lock
     *  so sequence order matches queue order. */
    std::uint64_t admit(const std::string &id);

    /** Block until every predecessor of @p seq has completed or been
     *  cancelled. */
    void awaitTurn(const std::string &id, std::uint64_t seq);

    /** The session's current marker state.  Asserts the session
     *  exists. */
    Snapshot fetch(const std::string &id) const;

    /** Non-asserting fetch: null when the session does not exist.
     *  Used by the migration pull path, where "no such session yet"
     *  is a normal answer, not a protocol error. */
    Snapshot tryFetch(const std::string &id) const;

    /** Create-or-overwrite a session's marker state from a
     *  checkpoint (drain migration / warm-backup replication onto
     *  this replica).  Turn bookkeeping is preserved for an existing
     *  session and starts fresh for a new one. */
    void restore(const std::string &id, SparseMarkers state);

    /** Publish the post-run state of turn @p seq and pass the turn
     *  on. */
    void complete(const std::string &id, std::uint64_t seq,
                  SparseMarkers state);

    /** Give up turn @p seq without running (admission reject or
     *  queue-wait timeout); state is unchanged. */
    void cancel(const std::string &id, std::uint64_t seq);

    std::size_t numSessions() const;

    /** Session ids in lexicographic order (checkpoint dumps). */
    std::vector<std::string> sessionIds() const;

  private:
    struct State
    {
        explicit State(Snapshot initial) : markers(std::move(initial))
        {}
        std::uint64_t submitSeq = 0;
        std::uint64_t doneSeq = 0;
        /** Cancelled turns not yet reached by doneSeq. */
        std::set<std::uint64_t> cancelled;
        Snapshot markers;
    };

    /** Advance doneSeq over contiguous cancelled turns (caller holds
     *  mu_). */
    static void skipCancelled(State &s);

    State &stateOf(const std::string &id);

    mutable std::mutex mu_;
    std::condition_variable turn_;
    std::map<std::string, State> sessions_;
    std::uint32_t numNodes_;
    /** Shared initial state of every new session. */
    Snapshot empty_;
};

} // namespace serve
} // namespace snap

#endif // SNAP_SERVE_SESSION_STORE_HH
