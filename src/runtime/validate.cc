#include "runtime/validate.hh"

#include <map>

#include "common/logging.hh"

namespace snap
{

namespace
{

/** Markers an instruction reads (membership or value). */
void
markersRead(const Instruction &i, std::vector<MarkerId> &out)
{
    out.clear();
    switch (i.op) {
      case Opcode::Propagate:
        out.push_back(i.m1);
        break;
      case Opcode::MarkerCreate:
      case Opcode::MarkerDelete:
      case Opcode::MarkerSetColor:
      case Opcode::CollectMarker:
      case Opcode::CollectRelation:
        out.push_back(i.m1);
        break;
      case Opcode::AndMarker:
      case Opcode::OrMarker:
        out.push_back(i.m1);
        out.push_back(i.m2);
        break;
      case Opcode::NotMarker:
      case Opcode::FuncMarker:
        out.push_back(i.m1);
        break;
      default:
        break;
    }
}

/** Markers an instruction writes. */
void
markersWritten(const Instruction &i, std::vector<MarkerId> &out)
{
    out.clear();
    switch (i.op) {
      case Opcode::SearchNode:
      case Opcode::SearchRelation:
      case Opcode::SearchColor:
      case Opcode::SetMarker:
      case Opcode::ClearMarker:
      case Opcode::FuncMarker:
        out.push_back(i.m1);
        break;
      case Opcode::Propagate:
        out.push_back(i.m2);
        break;
      case Opcode::AndMarker:
      case Opcode::OrMarker:
      case Opcode::NotMarker:
        out.push_back(i.m3);
        break;
      default:
        break;
    }
}

} // namespace

std::vector<RaceViolation>
validateProgram(const Program &prog)
{
    std::vector<RaceViolation> violations;
    // Marker -> index of the unbarriered PROPAGATE writing it (m2).
    std::map<MarkerId, std::size_t> inflightWrites;
    // Marker -> index of the unbarriered PROPAGATE reading it (m1):
    // source scans execute asynchronously per cluster, so a later
    // write to m1 can land before some cluster's scan.
    std::map<MarkerId, std::size_t> inflightReads;
    // Marker -> index of the last non-propagate instruction touching
    // it in this epoch.  A later PROPAGATE into such a marker races
    // backward: its remote deliveries can reach a cluster that has
    // not yet executed the earlier (locally-ordered) instruction.
    std::map<MarkerId, std::size_t> epochTouched;

    std::vector<MarkerId> reads, writes;
    for (std::size_t idx = 0; idx < prog.size(); ++idx) {
        const Instruction &i = prog[idx];

        if (i.op == Opcode::Barrier) {
            inflightWrites.clear();
            inflightReads.clear();
            epochTouched.clear();
            continue;
        }

        markersRead(i, reads);
        markersWritten(i, writes);

        auto check = [&](MarkerId m, const char *what) {
            auto it = inflightWrites.find(m);
            if (it == inflightWrites.end())
                return;
            if (it->second == idx)
                return;
            violations.push_back(RaceViolation{
                idx, it->second, m,
                formatString(
                    "instruction %zu (%s) %s marker m%u while "
                    "PROPAGATE at %zu may still deliver it; "
                    "insert BARRIER",
                    idx, opcodeName(i.op), what,
                    static_cast<unsigned>(m), it->second)});
        };
        auto check_read = [&](MarkerId m) {
            auto it = inflightReads.find(m);
            if (it == inflightReads.end())
                return;
            if (it->second == idx)
                return;
            violations.push_back(RaceViolation{
                idx, it->second, m,
                formatString(
                    "instruction %zu (%s) writes marker m%u while "
                    "PROPAGATE at %zu may still be scanning it; "
                    "insert BARRIER",
                    idx, opcodeName(i.op),
                    static_cast<unsigned>(m), it->second)});
        };

        for (MarkerId m : reads)
            check(m, "reads");
        for (MarkerId m : writes) {
            check(m, "writes");
            check_read(m);
        }

        if (i.op == Opcode::Propagate) {
            if (i.m1 == i.m2) {
                violations.push_back(RaceViolation{
                    idx, idx, i.m1,
                    formatString("instruction %zu: PROPAGATE with "
                                 "m1 == m2 (m%u)", idx,
                                 static_cast<unsigned>(i.m1))});
            }
            auto et = epochTouched.find(i.m2);
            if (et != epochTouched.end()) {
                violations.push_back(RaceViolation{
                    idx, et->second, i.m2,
                    formatString(
                        "instruction %zu (PROPAGATE) delivers into "
                        "m%u, which instruction %zu touches earlier "
                        "in the same epoch; a slow cluster may "
                        "execute that instruction after deliveries "
                        "arrive — insert BARRIER between them",
                        idx, static_cast<unsigned>(i.m2),
                        et->second)});
            }
            inflightWrites[i.m2] = idx;
            inflightReads[i.m1] = idx;
        } else {
            for (MarkerId m : reads)
                epochTouched[m] = idx;
            for (MarkerId m : writes)
                epochTouched[m] = idx;
        }
    }
    return violations;
}

bool
checkOperands(const Program &prog, const OperandLimits &lim,
              std::string &err)
{
    const std::vector<Instruction> &instrs = prog.instructions();
    for (std::size_t idx = 0; idx < instrs.size(); ++idx) {
        const Instruction &i = instrs[idx];
        bool node = false, end = false;
        switch (i.op) {
          case Opcode::Create:
          case Opcode::Delete:
          case Opcode::SetWeight:
            node = end = true;
            break;
          case Opcode::SetColor:
          case Opcode::SearchNode:
            node = true;
            break;
          case Opcode::MarkerCreate:
          case Opcode::MarkerDelete:
            end = true;
            break;
          default:
            break;
        }
        auto fail = [&](const char *what, std::uint32_t v,
                        std::uint32_t n) {
            err = formatString("instruction %zu (%s): %s %u out of "
                               "range (%u)", idx, opcodeName(i.op),
                               what, v, n);
            return false;
        };
        if (i.op >= Opcode::NumOpcodes) {
            return fail("opcode", static_cast<std::uint32_t>(i.op),
                        static_cast<std::uint32_t>(Opcode::NumOpcodes));
        }
        for (MarkerId m : {i.m1, i.m2, i.m3}) {
            if (m >= capacity::numMarkers)
                return fail("marker", m, capacity::numMarkers);
        }
        if (node && i.node >= lim.numNodes)
            return fail("node", i.node, lim.numNodes);
        if (end && i.endNode >= lim.numNodes)
            return fail("end node", i.endNode, lim.numNodes);
        if (i.op == Opcode::Propagate && i.rule >= prog.rules().size())
            return fail("rule", i.rule, prog.rules().size());
        if (i.op == Opcode::Propagate && i.m1 == i.m2) {
            err = formatString("instruction %zu (%s): marker %u "
                               "propagates into itself", idx,
                               opcodeName(i.op), i.m1);
            return false;
        }
    }
    return true;
}

void
requireRaceFree(const Program &prog)
{
    auto violations = validateProgram(prog);
    if (violations.empty())
        return;
    for (const auto &v : violations)
        snap_warn("%s", v.message.c_str());
    snap_fatal("program has %zu barrier-discipline violation(s)",
               violations.size());
}

} // namespace snap
