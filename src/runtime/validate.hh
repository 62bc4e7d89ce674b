/**
 * @file
 * Static race validation for SNAP programs.
 *
 * On the machine, marker delivery from PROPAGATE is asynchronous:
 * remote activations may still be in flight when later instructions
 * execute.  "Before L6 can be executed, the PE's which are propagating
 * markers need to be synchronized because of the data dependency with
 * {L4, L5}" (paper §II-C, Fig. 7).  The hardware provides BARRIER;
 * placing it is software's responsibility.
 *
 * This validator reproduces that discipline statically: within one
 * barrier epoch, any instruction that reads or writes a marker still
 * being propagated into (the m2 of an unbarriered PROPAGATE), or that
 * re-propagates from it, is reported.  Such programs have
 * timing-dependent results on real hardware and on this model.
 */

#ifndef SNAP_RUNTIME_VALIDATE_HH
#define SNAP_RUNTIME_VALIDATE_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace snap
{

/** One detected ordering hazard. */
struct RaceViolation
{
    /** Index of the conflicting instruction. */
    std::size_t instrIndex;
    /** Index of the unbarriered PROPAGATE it conflicts with. */
    std::size_t propagateIndex;
    /** The marker both touch. */
    MarkerId marker;
    std::string message;
};

/**
 * Scan @p prog for barrier-discipline violations.
 * @return all violations, empty when the program is race free.
 */
std::vector<RaceViolation> validateProgram(const Program &prog);

/** Fatal error if @p prog has any violation (user error). */
void requireRaceFree(const Program &prog);

/** Id spaces of the knowledge base a program runs against. */
struct OperandLimits
{
    std::uint32_t numNodes = 0;
};

/**
 * Range-check every operand the machine indexes by: the opcode, node
 * and end-node ids against the node count, markers against the 128
 * registers, and PROPAGATE rule tokens against @p prog's rule table.
 * Only the fields an opcode uses are checked.  Relation and colour ids
 * are not: the machine holds them as values and only compares them, so
 * a name the knowledge base lacks matches nothing rather than faulting.
 * A PROPAGATE whose source and destination marker are the same is
 * refused too: it races with its own deliveries (validateProgram
 * flags it as well).
 * A program that passes cannot index past any machine table; one that
 * fails must not run.
 * @return true when every operand is in range; otherwise false, with
 *         @p err naming the first offending instruction.  Does not
 *         allocate on success.
 */
bool checkOperands(const Program &prog, const OperandLimits &lim,
                   std::string &err);

} // namespace snap

#endif // SNAP_RUNTIME_VALIDATE_HH
