/**
 * @file
 * Tests for the ISA layer: marker functions, propagation-rule NFA
 * semantics, instruction encoding, programs, and the validator.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "isa/function.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"
#include "isa/prop_rule.hh"
#include "runtime/validate.hh"

namespace snap
{
namespace
{

// --- marker functions -------------------------------------------------------

TEST(MarkerFunc, ApplyStep)
{
    EXPECT_FLOAT_EQ(applyStep(MarkerFunc::None, 2.0f, 9.0f), 2.0f);
    EXPECT_FLOAT_EQ(applyStep(MarkerFunc::AddWeight, 2.0f, 0.5f),
                    2.5f);
    EXPECT_FLOAT_EQ(applyStep(MarkerFunc::MinWeight, 2.0f, 0.5f),
                    0.5f);
    EXPECT_FLOAT_EQ(applyStep(MarkerFunc::MaxWeight, 2.0f, 0.5f),
                    2.0f);
    EXPECT_FLOAT_EQ(applyStep(MarkerFunc::MulWeight, 2.0f, 0.5f),
                    1.0f);
    EXPECT_FLOAT_EQ(applyStep(MarkerFunc::Count, 2.0f, 9.0f), 3.0f);
}

TEST(MarkerFunc, ImprovesFollowsMergeOrder)
{
    // Min-order functions prefer smaller values.
    EXPECT_TRUE(improves(MarkerFunc::AddWeight, 1.0f, 2.0f));
    EXPECT_FALSE(improves(MarkerFunc::AddWeight, 2.0f, 1.0f));
    EXPECT_TRUE(improves(MarkerFunc::Count, 3.0f, 4.0f));
    // Max-order functions prefer larger.
    EXPECT_TRUE(improves(MarkerFunc::MaxWeight, 2.0f, 1.0f));
    EXPECT_FALSE(improves(MarkerFunc::MaxWeight, 1.0f, 2.0f));
    // None never improves.
    EXPECT_FALSE(improves(MarkerFunc::None, 0.0f, 5.0f));
    EXPECT_FALSE(improves(MarkerFunc::None, 5.0f, 0.0f));
}

TEST(MarkerFunc, MergeKeepsBetter)
{
    EXPECT_FLOAT_EQ(merge(MarkerFunc::AddWeight, 2.0f, 1.0f), 1.0f);
    EXPECT_FLOAT_EQ(merge(MarkerFunc::AddWeight, 1.0f, 2.0f), 1.0f);
    EXPECT_FLOAT_EQ(merge(MarkerFunc::MaxWeight, 1.0f, 2.0f), 2.0f);
}

TEST(MarkerFunc, Names)
{
    MarkerFunc f;
    EXPECT_TRUE(markerFuncFromName("add-weight", f));
    EXPECT_EQ(f, MarkerFunc::AddWeight);
    EXPECT_FALSE(markerFuncFromName("nope", f));
    EXPECT_STREQ(markerFuncName(MarkerFunc::Count), "count");
}

TEST(ScalarFuncTest, ArithmeticOps)
{
    float v = 2.0f;
    EXPECT_TRUE((ScalarFunc{ScalarFunc::Op::Add, 1.5f}).apply(v));
    EXPECT_FLOAT_EQ(v, 3.5f);
    EXPECT_TRUE((ScalarFunc{ScalarFunc::Op::Mul, 2.0f}).apply(v));
    EXPECT_FLOAT_EQ(v, 7.0f);
    EXPECT_TRUE((ScalarFunc{ScalarFunc::Op::Sub, 3.0f}).apply(v));
    EXPECT_FLOAT_EQ(v, 4.0f);
    EXPECT_TRUE((ScalarFunc{ScalarFunc::Op::Set, 9.0f}).apply(v));
    EXPECT_FLOAT_EQ(v, 9.0f);
}

TEST(ScalarFuncTest, Thresholds)
{
    float v = 2.0f;
    EXPECT_TRUE(
        (ScalarFunc{ScalarFunc::Op::ThresholdGe, 2.0f}).apply(v));
    EXPECT_FALSE(
        (ScalarFunc{ScalarFunc::Op::ThresholdGe, 2.5f}).apply(v));
    EXPECT_TRUE(
        (ScalarFunc{ScalarFunc::Op::ThresholdLt, 2.5f}).apply(v));
    EXPECT_FLOAT_EQ(v, 2.0f);  // thresholds leave the value alone
}

TEST(CombineOpTest, AllOps)
{
    EXPECT_FLOAT_EQ(combine(CombineOp::Sum, 2, 3), 5);
    EXPECT_FLOAT_EQ(combine(CombineOp::Min, 2, 3), 2);
    EXPECT_FLOAT_EQ(combine(CombineOp::Max, 2, 3), 3);
    EXPECT_FLOAT_EQ(combine(CombineOp::First, 2, 3), 2);
    EXPECT_FLOAT_EQ(combine(CombineOp::Diff, 2, 3), -1);
}

// --- propagation rules --------------------------------------------------------

std::vector<std::uint8_t>
stepOf(const PropRule &r, std::uint8_t state, RelationType rel)
{
    std::vector<std::uint8_t> out;
    r.step(state, rel, out);
    return out;
}

TEST(PropRuleTest, SeqConsumesExactlyOnce)
{
    PropRule r = PropRule::seq(1, 2);
    EXPECT_EQ(stepOf(r, 0, 1), (std::vector<std::uint8_t>{1}));
    EXPECT_TRUE(stepOf(r, 0, 2).empty());  // r2 before r1: no
    EXPECT_EQ(stepOf(r, 1, 2), (std::vector<std::uint8_t>{2}));
    EXPECT_TRUE(stepOf(r, 1, 1).empty());
    EXPECT_TRUE(stepOf(r, 2, 1).empty());  // dead state
    EXPECT_TRUE(r.live(0));
    EXPECT_TRUE(r.live(1));
    EXPECT_FALSE(r.live(2));
}

TEST(PropRuleTest, SpreadSwitchesAtR2)
{
    PropRule r = PropRule::spread(1, 2);
    EXPECT_EQ(stepOf(r, 0, 1), (std::vector<std::uint8_t>{0}));
    // From state 0, an r2 link skips the star segment.
    EXPECT_EQ(stepOf(r, 0, 2), (std::vector<std::uint8_t>{1}));
    EXPECT_EQ(stepOf(r, 1, 2), (std::vector<std::uint8_t>{1}));
    EXPECT_TRUE(stepOf(r, 1, 1).empty());  // no r1 after the switch
}

TEST(PropRuleTest, SpreadWithSameRelationBothStates)
{
    // spread(r, r): an r link loops in segment 0 AND advances to
    // segment 1 (genuine NFA nondeterminism).
    PropRule r = PropRule::spread(3, 3);
    auto next = stepOf(r, 0, 3);
    EXPECT_EQ(next, (std::vector<std::uint8_t>{0, 1}));
}

TEST(PropRuleTest, CombFollowsBoth)
{
    PropRule r = PropRule::comb(1, 2);
    EXPECT_EQ(stepOf(r, 0, 1), (std::vector<std::uint8_t>{0}));
    EXPECT_EQ(stepOf(r, 0, 2), (std::vector<std::uint8_t>{0}));
    EXPECT_TRUE(stepOf(r, 0, 3).empty());
}

TEST(PropRuleTest, ChainAndStep)
{
    PropRule chain = PropRule::chain(5);
    EXPECT_EQ(stepOf(chain, 0, 5), (std::vector<std::uint8_t>{0}));
    EXPECT_TRUE(chain.live(0));

    PropRule step = PropRule::step1(5);
    EXPECT_EQ(stepOf(step, 0, 5), (std::vector<std::uint8_t>{1}));
    EXPECT_FALSE(step.live(1));
}

TEST(PropRuleTest, CustomMultiSegment)
{
    // [ {1} once, {2,3}*, {4} once ]
    PropRule r;
    r.name = "custom";
    r.segments = {RuleSegment{{1}, false}, RuleSegment{{2, 3}, true},
                  RuleSegment{{4}, false}};
    EXPECT_EQ(stepOf(r, 0, 1), (std::vector<std::uint8_t>{1}));
    EXPECT_EQ(stepOf(r, 1, 2), (std::vector<std::uint8_t>{1}));
    EXPECT_EQ(stepOf(r, 1, 3), (std::vector<std::uint8_t>{1}));
    // The star segment can be skipped entirely; consuming the final
    // ONCE segment lands in the dead (accepting) state 3.
    EXPECT_EQ(stepOf(r, 1, 4), (std::vector<std::uint8_t>{3}));
    EXPECT_FALSE(r.live(3));
}

TEST(RuleTableTest, TokensAreDense)
{
    RuleTable t;
    RuleId a = t.add(PropRule::chain(1));
    RuleId b = t.add(PropRule::seq(1, 2));
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.rule(a).name, "chain");
}

// --- instructions ------------------------------------------------------------

TEST(InstructionTest, CategoriesMatchTable2)
{
    EXPECT_EQ(Instruction::create(0, 1, 1.0f, 2).category(),
              InstrCategory::NodeMaintenance);
    EXPECT_EQ(Instruction::searchColor(0, 1, 0).category(),
              InstrCategory::Search);
    EXPECT_EQ(Instruction::propagate(0, 1, 0,
                                     MarkerFunc::None).category(),
              InstrCategory::Propagation);
    EXPECT_EQ(Instruction::markerCreate(0, 1, 2, 3).category(),
              InstrCategory::MarkerMaintenance);
    EXPECT_EQ(Instruction::andMarker(0, 1, 2).category(),
              InstrCategory::Boolean);
    EXPECT_EQ(Instruction::setMarker(0, 0).category(),
              InstrCategory::SetClear);
    EXPECT_EQ(Instruction::collectMarker(0).category(),
              InstrCategory::Collection);
    EXPECT_EQ(Instruction::barrier().category(),
              InstrCategory::Synchronization);
}

TEST(InstructionTest, TwentyPlusBarrierOpcodes)
{
    // Table II's 20 instructions plus the explicit BARRIER.
    EXPECT_EQ(static_cast<int>(Opcode::NumOpcodes), 21);
}

TEST(InstructionTest, NamesRoundTrip)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        auto op = static_cast<Opcode>(i);
        Opcode back;
        ASSERT_TRUE(opcodeFromName(opcodeName(op), back))
            << opcodeName(op);
        EXPECT_EQ(back, op);
    }
}

TEST(InstructionTest, ToStringMentionsOperands)
{
    Instruction i = Instruction::propagate(1, 2, 3,
                                           MarkerFunc::AddWeight);
    std::string s = i.toString();
    EXPECT_NE(s.find("PROPAGATE"), std::string::npos);
    EXPECT_NE(s.find("m1"), std::string::npos);
    EXPECT_NE(s.find("m2"), std::string::npos);
    EXPECT_NE(s.find("add-weight"), std::string::npos);
}

// --- program -----------------------------------------------------------------------

TEST(ProgramTest, CategoryCounts)
{
    Program p;
    p.append(Instruction::searchNode(0, 0, 0));
    p.append(Instruction::propagate(0, 1, 0, MarkerFunc::None));
    p.append(Instruction::propagate(1, 2, 0, MarkerFunc::None));
    p.append(Instruction::barrier());
    auto counts = p.categoryCounts();
    EXPECT_EQ(counts[static_cast<std::size_t>(
                  InstrCategory::Propagation)], 2u);
    EXPECT_EQ(counts[static_cast<std::size_t>(
                  InstrCategory::Search)], 1u);
    EXPECT_EQ(p.countOpcode(Opcode::Propagate), 2u);
}

/** A program whose one instruction sets every operand field, built
 *  with @p edit applied to the instruction and @p rule_edit to its
 *  one rule. */
template <typename InstrEdit, typename RuleEdit>
Program
everyFieldProgram(InstrEdit edit, RuleEdit rule_edit)
{
    PropRule rule = PropRule::spread(3, 4);
    rule.name = "r";
    rule.maxSteps = 9;
    rule_edit(rule);
    Instruction i;
    i.op = Opcode::Propagate;
    i.node = 11;
    i.endNode = 12;
    i.rel = 13;
    i.rel2 = 14;
    i.color = 15;
    i.m1 = 16;
    i.m2 = 17;
    i.m3 = 18;
    i.value = 1.5f;
    i.rule = 0;
    i.func = MarkerFunc::AddWeight;
    i.comb = CombineOp::Max;
    i.sfunc = ScalarFunc{ScalarFunc::Op::Mul, 2.5f};
    edit(i);
    Program p;
    p.addRule(std::move(rule));
    p.append(i);
    return p;
}

TEST(ProgramTest, EqualityCoversEveryHashedFieldAndIgnoresRuleNames)
{
    auto same = [](Instruction &) {};
    auto same_rule = [](PropRule &) {};
    const Program base = everyFieldProgram(same, same_rule);
    EXPECT_TRUE(base == everyFieldProgram(same, same_rule));

    const std::vector<void (*)(Instruction &)> instr_edits = {
        [](Instruction &i) { i.op = Opcode::SearchNode; },
        [](Instruction &i) { i.node = 99; },
        [](Instruction &i) { i.endNode = 99; },
        [](Instruction &i) { i.rel = 99; },
        [](Instruction &i) { i.rel2 = 99; },
        [](Instruction &i) { i.color = 99; },
        [](Instruction &i) { i.m1 = 99; },
        [](Instruction &i) { i.m2 = 99; },
        [](Instruction &i) { i.m3 = 99; },
        [](Instruction &i) { i.value = 2.0f; },
        [](Instruction &i) { i.value = -0.0f; },
        [](Instruction &i) { i.rule = 1; },
        [](Instruction &i) { i.func = MarkerFunc::Count; },
        [](Instruction &i) { i.comb = CombineOp::Min; },
        [](Instruction &i) { i.sfunc.op = ScalarFunc::Op::Add; },
        [](Instruction &i) { i.sfunc.imm = 3.0f; },
    };
    for (std::size_t k = 0; k < instr_edits.size(); ++k) {
        Program p = everyFieldProgram(instr_edits[k], same_rule);
        EXPECT_FALSE(p == base) << "instruction edit " << k;
        EXPECT_NE(p.contentHash(), base.contentHash())
            << "instruction edit " << k;
    }

    const std::vector<void (*)(PropRule &)> rule_edits = {
        [](PropRule &r) { r.maxSteps = 10; },
        [](PropRule &r) { r.segments[0].star = false; },
        [](PropRule &r) { r.segments[1].rels.push_back(5); },
        [](PropRule &r) { r.segments[0].rels[0] = 6; },
        [](PropRule &r) { r.segments.pop_back(); },
    };
    for (std::size_t k = 0; k < rule_edits.size(); ++k) {
        Program p = everyFieldProgram(same, rule_edits[k]);
        EXPECT_FALSE(p == base) << "rule edit " << k;
        EXPECT_NE(p.contentHash(), base.contentHash())
            << "rule edit " << k;
    }

    Program renamed = everyFieldProgram(
        same, [](PropRule &r) { r.name = "another name"; });
    EXPECT_TRUE(renamed == base);
    EXPECT_EQ(renamed.contentHash(), base.contentHash());

    Program longer = base;
    longer.append(Instruction::barrier());
    EXPECT_FALSE(longer == base);
    Program more_rules = base;
    more_rules.addRule(PropRule::chain(1));
    EXPECT_FALSE(more_rules == base);
    EXPECT_NE(more_rules.contentHash(), base.contentHash());
}

TEST(MarkerAllocTest, BanksAndExhaustion)
{
    MarkerAlloc alloc;
    MarkerId c = alloc.complex();
    MarkerId b = alloc.binary();
    EXPECT_TRUE(isComplexMarker(c));
    EXPECT_TRUE(isBinaryMarker(b));
    EXPECT_EQ(alloc.complexInUse(), 1u);
    EXPECT_EQ(alloc.binaryInUse(), 1u);
    alloc.reset();
    EXPECT_EQ(alloc.complex(), c);
}

// --- validator ---------------------------------------------------------------

TEST(Validator, CleanProgramPasses)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::searchNode(0, 0, 0));
    p.append(Instruction::propagate(0, 1, r, MarkerFunc::None));
    p.append(Instruction::barrier());
    p.append(Instruction::collectMarker(1));
    EXPECT_TRUE(validateProgram(p).empty());
}

TEST(Validator, ReadOfInflightMarkerFlagged)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(0, 1, r, MarkerFunc::None));
    p.append(Instruction::collectMarker(1));  // no barrier!
    auto v = validateProgram(p);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].marker, 1);
    EXPECT_EQ(v[0].propagateIndex, 0u);
}

TEST(Validator, WriteOfInflightSourceFlagged)
{
    // A later propagate writing an earlier propagate's m1 races with
    // the source scan.
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(5, 6, r, MarkerFunc::None));
    p.append(Instruction::propagate(7, 5, r, MarkerFunc::None));
    auto v = validateProgram(p);
    ASSERT_GE(v.size(), 1u);
    EXPECT_EQ(v[0].marker, 5);
}

TEST(Validator, ChainedPropagationFlagged)
{
    // Fig. 7: propagate into m1, then propagate FROM m1 without a
    // barrier.
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(0, 1, r, MarkerFunc::None));
    p.append(Instruction::propagate(1, 2, r, MarkerFunc::None));
    auto v = validateProgram(p);
    ASSERT_GE(v.size(), 1u);
}

TEST(Validator, BarrierClearsHazards)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(0, 1, r, MarkerFunc::None));
    p.append(Instruction::barrier());
    p.append(Instruction::propagate(1, 2, r, MarkerFunc::None));
    p.append(Instruction::barrier());
    p.append(Instruction::collectMarker(2));
    EXPECT_TRUE(validateProgram(p).empty());
}

TEST(Validator, BackwardHazardFlagged)
{
    // An instruction touching a marker, then a PROPAGATE delivering
    // into it in the same epoch: a slow cluster can execute the
    // earlier instruction after deliveries arrive.
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::clearMarker(4));
    p.append(Instruction::propagate(0, 4, r, MarkerFunc::None));
    auto v = validateProgram(p);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].marker, 4);
    EXPECT_EQ(v[0].propagateIndex, 0u);  // the earlier toucher
    EXPECT_NE(v[0].message.find("earlier in the same epoch"),
              std::string::npos);
}

TEST(Validator, BackwardHazardClearedByBarrier)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::clearMarker(4));
    p.append(Instruction::barrier());
    p.append(Instruction::propagate(0, 4, r, MarkerFunc::None));
    p.append(Instruction::barrier());
    EXPECT_TRUE(validateProgram(p).empty());
}

TEST(Validator, BackwardHazardOnReadsToo)
{
    // Even a READ of the future m2 races: the reader may observe
    // partial deliveries on a slow cluster.
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::collectMarker(4));
    p.append(Instruction::propagate(0, 4, r, MarkerFunc::None));
    EXPECT_EQ(validateProgram(p).size(), 1u);
}

TEST(Validator, SelfPropagationFlagged)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(3, 3, r, MarkerFunc::None));
    auto v = validateProgram(p);
    ASSERT_EQ(v.size(), 1u);
}

TEST(OperandCheck, EveryIndexedOperandIsRangeChecked)
{
    const OperandLimits lim{300};
    auto ok = [&](const Program &p) {
        std::string err;
        const bool pass = checkOperands(p, lim, err);
        EXPECT_EQ(pass, err.empty()) << err;
        return pass;
    };
    auto one = [](const Instruction &i) {
        Program p;
        p.addRule(PropRule::chain(1));
        p.append(i);
        return p;
    };

    EXPECT_TRUE(ok(one(Instruction::searchNode(299, 127, 1.0f))));
    EXPECT_TRUE(ok(one(Instruction::propagate(0, 64, 0,
                                              MarkerFunc::None))));
    EXPECT_TRUE(ok(one(Instruction::create(0, 3, 1.0f, 299))));
    EXPECT_TRUE(ok(one(Instruction::barrier())));

    const Instruction bad[] = {
        Instruction::searchNode(123456789, 0, 1.0f),
        Instruction::searchNode(300, 0, 1.0f),
        Instruction::create(0, 1, 1.0f, 300),
        Instruction::setColor(300, 0),
        Instruction::markerCreate(0, 1, 300, 2),
        Instruction::searchNode(0, 128, 1.0f),
        Instruction::andMarker(0, 200, 1),
        Instruction::notMarker(0, 255),
        Instruction::propagate(0, 1, 1, MarkerFunc::None),
        Instruction::propagate(3, 3, 0, MarkerFunc::None),
    };
    for (std::size_t k = 0; k < std::size(bad); ++k)
        EXPECT_FALSE(ok(one(bad[k]))) << "case " << k;

    // Relation and colour ids are compared, never indexed by: one the
    // knowledge base lacks matches nothing, so it is admitted.
    const Instruction by_value[] = {
        Instruction::searchRelation(4, 0, 1.0f),
        Instruction::collectRelation(0, 60000),
        Instruction::markerDelete(0, 1, 0, 4),
        Instruction::searchColor(3, 0, 0.0f),
        Instruction::collectColor(255),
    };
    for (std::size_t k = 0; k < std::size(by_value); ++k)
        EXPECT_TRUE(ok(one(by_value[k]))) << "case " << k;
    Program rule_rel;
    rule_rel.addRule(PropRule::spread(1, 60000));
    EXPECT_TRUE(ok(rule_rel));

    // Fields an opcode does not use are not checked: SEARCH-NODE
    // leaves the end node at its default.
    Instruction unused = Instruction::searchNode(1, 0, 1.0f);
    unused.endNode = invalidNode;
    EXPECT_TRUE(ok(one(unused)));
}

TEST(ValidatorDeath, RequireRaceFreeIsFatal)
{
    Program p;
    RuleId r = p.addRule(PropRule::chain(1));
    p.append(Instruction::propagate(0, 1, r, MarkerFunc::None));
    p.append(Instruction::collectMarker(1));
    EXPECT_EXIT(requireRaceFree(p), ::testing::ExitedWithCode(1),
                "violation");
}

} // namespace
} // namespace snap
