#include "serve/session_store.hh"

#include <utility>

#include "common/logging.hh"

namespace snap
{
namespace serve
{

SessionStore::State &
SessionStore::stateOf(const std::string &id)
{
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        it = sessions_.emplace(id, State(empty_)).first;
    return it->second;
}

std::uint64_t
SessionStore::admit(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mu_);
    return stateOf(id).submitSeq++;
}

void
SessionStore::awaitTurn(const std::string &id, std::uint64_t seq)
{
    std::unique_lock<std::mutex> lock(mu_);
    State &s = stateOf(id);
    turn_.wait(lock, [&] { return s.doneSeq >= seq; });
    snap_assert(s.doneSeq == seq,
                "session turn %llu already passed (doneSeq %llu)",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(s.doneSeq));
}

SessionStore::Snapshot
SessionStore::fetch(const std::string &id) const
{
    Snapshot snap = tryFetch(id);
    snap_assert(snap != nullptr, "fetch of unknown session");
    return snap;
}

SessionStore::Snapshot
SessionStore::tryFetch(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.markers;
}

void
SessionStore::restore(const std::string &id, SparseMarkers state)
{
    snap_assert(state.numNodes() == numNodes_,
                "session restore with %u nodes into a %u-node store",
                state.numNodes(), numNodes_);
    auto next = std::make_shared<const SparseMarkers>(std::move(state));
    Snapshot old; // the replaced state is freed outside the lock
    {
        std::lock_guard<std::mutex> lock(mu_);
        old = std::exchange(stateOf(id).markers, std::move(next));
    }
    turn_.notify_all();
}

void
SessionStore::skipCancelled(State &s)
{
    while (true) {
        auto it = s.cancelled.find(s.doneSeq);
        if (it == s.cancelled.end())
            break;
        s.cancelled.erase(it);
        ++s.doneSeq;
    }
}

void
SessionStore::complete(const std::string &id, std::uint64_t seq,
                       SparseMarkers state)
{
    snap_assert(state.numNodes() == numNodes_,
                "session publish with %u nodes into a %u-node store",
                state.numNodes(), numNodes_);
    auto next = std::make_shared<const SparseMarkers>(std::move(state));
    Snapshot old; // the replaced state is freed outside the lock
    {
        std::lock_guard<std::mutex> lock(mu_);
        State &s = stateOf(id);
        snap_assert(s.doneSeq == seq, "completion out of turn");
        old = std::exchange(s.markers, std::move(next));
        s.doneSeq = seq + 1;
        skipCancelled(s);
    }
    turn_.notify_all();
}

void
SessionStore::cancel(const std::string &id, std::uint64_t seq)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        State &s = stateOf(id);
        if (s.doneSeq == seq) {
            ++s.doneSeq;
            skipCancelled(s);
        } else {
            snap_assert(seq > s.doneSeq, "cancel of finished turn");
            s.cancelled.insert(seq);
        }
    }
    turn_.notify_all();
}

std::size_t
SessionStore::numSessions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sessions_.size();
}

std::vector<std::string>
SessionStore::sessionIds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> ids;
    ids.reserve(sessions_.size());
    for (const auto &kv : sessions_)
        ids.push_back(kv.first);
    return ids;
}

} // namespace serve
} // namespace snap
