#include "arch/perf_net.hh"

#include <algorithm>

#include "common/logging.hh"

namespace snap
{

PerfNet::PerfNet(std::uint32_t num_pes, const TimingParams &t,
                 bool enabled)
    : enabled_(enabled),
      shiftTicks_(static_cast<Tick>(t.perfRecordBits) * ticksPerSec /
                  t.perfNetBps),
      portBusyUntil_(num_pes, 0)
{
}

void
PerfNet::View::emit(std::uint32_t pe, Tick now, PerfEvent event,
                    std::uint32_t status)
{
    PerfNet *net = net_;
    if (!net || !net->enabled_)
        return;
    ++emitted_;
    snap_assert(pe < net->portBusyUntil_.size(),
                "perf pe %u out of %zu", pe,
                net->portBusyUntil_.size());
    Tick &busy = net->portBusyUntil_[pe];
    if (busy > now) {
        // Serial-port register still shifting the previous record.
        ++dropped_;
        return;
    }
    busy = now + net->shiftTicks_;
    records_.push_back(PerfRecord{now + net->shiftTicks_, pe, event,
                                  status & 0xffffffu});
}

void
PerfNet::fold(View &view)
{
    auto mid = records_.end() - records_.begin();
    emitted += view.emitted_;
    droppedRecords += view.dropped_;
    view.emitted_ = 0;
    view.dropped_ = 0;
    records_.insert(records_.end(), view.records_.begin(),
                    view.records_.end());
    view.records_.clear();
    // (timestamp, pe) is unique: the serial port serializes each
    // PE's records in time.
    std::sort(records_.begin() + mid, records_.end(),
              [](const PerfRecord &a, const PerfRecord &b) {
                  if (a.timestamp != b.timestamp)
                      return a.timestamp < b.timestamp;
                  return a.pe < b.pe;
              });
}

} // namespace snap
