#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/template.h"

namespace cacheportal::sql {
namespace {

QueryTemplate Extract(const std::string& sql) {
  auto result = ExtractTemplateFromSql(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryTemplate{};
}

TEST(TemplateTest, LiteralsBecomeParameters) {
  QueryTemplate t =
      Extract("SELECT * FROM R WHERE R.A > 10 AND R.B < 200");
  EXPECT_EQ(t.canonical_text,
            "SELECT * FROM R WHERE R.A > $1 AND R.B < $2");
  ASSERT_EQ(t.bindings.size(), 2u);
  EXPECT_EQ(t.bindings[0], Value::Int(10));
  EXPECT_EQ(t.bindings[1], Value::Int(200));
}

TEST(TemplateTest, InstancesOfSameTypeCollide) {
  QueryTemplate a = Extract("SELECT * FROM Car WHERE price < 20000");
  QueryTemplate b = Extract("SELECT * FROM Car WHERE price < 99");
  EXPECT_EQ(a.type_id, b.type_id);
  EXPECT_EQ(a.canonical_text, b.canonical_text);
  EXPECT_NE(a.bindings, b.bindings);
}

TEST(TemplateTest, DifferentStructureDifferentType) {
  QueryTemplate a = Extract("SELECT * FROM Car WHERE price < 20000");
  QueryTemplate b = Extract("SELECT * FROM Car WHERE price > 20000");
  EXPECT_NE(a.type_id, b.type_id);
}

TEST(TemplateTest, SelectListConstantsNotParameterized) {
  // Only WHERE literals define instance identity.
  QueryTemplate t = Extract("SELECT 1, maker FROM Car WHERE price = 5");
  EXPECT_EQ(t.canonical_text, "SELECT 1, maker FROM Car WHERE price = $1");
}

TEST(TemplateTest, NullAndBoolLiteralsStayStructural) {
  QueryTemplate t =
      Extract("SELECT * FROM R WHERE a = 5 AND b IS NOT NULL");
  EXPECT_EQ(t.canonical_text,
            "SELECT * FROM R WHERE a = $1 AND b IS NOT NULL");
  EXPECT_EQ(t.bindings.size(), 1u);
}

TEST(TemplateTest, NegativeNumbersBindWhole) {
  // `grp = -1` is the type of `grp = 1`, binding -1: one type the
  // matcher can anchor, not a second one it cannot.
  QueryTemplate neg = Extract("SELECT * FROM SmallT WHERE grp = -1");
  QueryTemplate pos = Extract("SELECT * FROM SmallT WHERE grp = 1");
  EXPECT_EQ(neg.type_id, pos.type_id);
  EXPECT_EQ(neg.canonical_text, "SELECT * FROM SmallT WHERE grp = $1");
  ASSERT_EQ(neg.bindings.size(), 1u);
  ASSERT_EQ(pos.bindings.size(), 1u);
  EXPECT_EQ(neg.bindings[0], Value::Int(-1));
  EXPECT_EQ(pos.bindings[0], Value::Int(1));
  QueryTemplate dbl = Extract("SELECT * FROM Car WHERE price BETWEEN -2.5 AND 3");
  EXPECT_EQ(dbl.type_id,
            Extract("SELECT * FROM Car WHERE price BETWEEN 2.5 AND 3").type_id);
  ASSERT_EQ(dbl.bindings.size(), 2u);
  EXPECT_EQ(dbl.bindings[0], Value::Double(-2.5));
}

TEST(TemplateTest, UnaryMinusOverNonLiteralsStaysStructural) {
  QueryTemplate col = Extract("SELECT * FROM R WHERE a = - b");
  EXPECT_TRUE(col.bindings.empty());
  EXPECT_NE(col.type_id, Extract("SELECT * FROM R WHERE a = b").type_id);
  QueryTemplate sum = Extract("SELECT * FROM R WHERE a = -(1 + 2)");
  ASSERT_EQ(sum.bindings.size(), 2u);
  EXPECT_EQ(sum.bindings[0], Value::Int(1));
  EXPECT_EQ(sum.bindings[1], Value::Int(2));
  EXPECT_NE(sum.type_id, Extract("SELECT * FROM R WHERE a = 1 + 2").type_id);
}

TEST(TemplateTest, ExistingParametersRenumbered) {
  QueryTemplate t = Extract("SELECT * FROM R WHERE a > $5 AND b < 7");
  EXPECT_EQ(t.canonical_text, "SELECT * FROM R WHERE a > $1 AND b < $2");
}

TEST(TemplateTest, StringsAndDoublesExtracted) {
  QueryTemplate t = Extract(
      "SELECT * FROM Car WHERE maker = 'Toyota' AND price < 2.5");
  ASSERT_EQ(t.bindings.size(), 2u);
  EXPECT_EQ(t.bindings[0], Value::String("Toyota"));
  EXPECT_EQ(t.bindings[1], Value::Double(2.5));
}

TEST(TemplateTest, InListItemsParameterized) {
  QueryTemplate t = Extract("SELECT * FROM R WHERE a IN (1, 2, 3)");
  EXPECT_EQ(t.canonical_text,
            "SELECT * FROM R WHERE a IN ($1, $2, $3)");
}

TEST(TemplateTest, InstantiateRoundTrip) {
  QueryTemplate t = Extract("SELECT * FROM Car WHERE price < 20000");
  auto inst = InstantiateTemplate(t, {Value::Int(30000)});
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(StatementToSql(**inst),
            "SELECT * FROM Car WHERE price < 30000");
}

TEST(TemplateTest, InstantiateWithOriginalBindingsReproducesInstance) {
  const std::string sql =
      "SELECT * FROM Car WHERE maker = 'Toyota' AND price < 20000";
  QueryTemplate t = Extract(sql);
  auto inst = InstantiateTemplate(t, t.bindings);
  ASSERT_TRUE(inst.ok());
  auto original = Parser::ParseSelect(sql);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(StatementToSql(**inst), StatementToSql(**original));
}

TEST(TemplateTest, HashIsStable) {
  EXPECT_EQ(HashQueryText("abc"), HashQueryText("abc"));
  EXPECT_NE(HashQueryText("abc"), HashQueryText("abd"));
  // FNV-1a of "" is the offset basis.
  EXPECT_EQ(HashQueryText(""), 1469598103934665603ULL);
}

TEST(TemplateTest, CloneIsDeep) {
  QueryTemplate t = Extract("SELECT * FROM R WHERE a = 1");
  QueryTemplate copy = t.Clone();
  EXPECT_EQ(copy.canonical_text, t.canonical_text);
  EXPECT_EQ(copy.type_id, t.type_id);
  EXPECT_NE(copy.statement.get(), t.statement.get());
}

TEST(TemplateTest, PaperQueryType) {
  // The paper's query type notation: SELECT * FROM R WHERE R.A > $V1 and
  // R.B < 200. Both the named parameter and the literal become ordinals.
  QueryTemplate t = Extract("SELECT * FROM R WHERE R.A > $V1 and R.B < 200");
  EXPECT_EQ(t.canonical_text, "SELECT * FROM R WHERE R.A > $1 AND R.B < $2");
}

}  // namespace
}  // namespace cacheportal::sql
