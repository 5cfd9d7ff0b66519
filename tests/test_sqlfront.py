"""Tests for the SQL front-end (repro.service.sqlfront)."""

import math

import pytest

from repro.core.queries import AggFunc
from repro.service.sqlfront import (ParsedSQL, SQLError, aggregate_arity,
                                    compile_sql, parse_sql)

AGG = "trip_distance"
PREDS = ("pickup_time", "fare")


class TestParse:
    def test_basic_between(self):
        sql = ("SELECT SUM(trip_distance) FROM trips "
               "WHERE pickup_time BETWEEN 100 AND 400")
        parsed = parse_sql(sql)
        assert parsed.agg is AggFunc.SUM
        assert parsed.attr == "trip_distance"
        assert parsed.table == "trips"
        assert parsed.conditions == (("pickup_time", 100.0, 400.0),)
        assert parsed.attr_pos == sql.index("trip_distance")
        assert parsed.condition_positions == \
            (sql.index("pickup_time BETWEEN"),)

    def test_keywords_case_insensitive(self):
        parsed = parse_sql("select avg(x) from t where a between 1 and 2")
        assert parsed.agg is AggFunc.AVG
        assert parsed.attr == "x"

    def test_count_star(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t")
        assert parsed.agg is AggFunc.COUNT
        assert parsed.attr is None
        assert parsed.conditions == ()

    def test_every_aggregate(self):
        for agg in AggFunc:
            if agg is AggFunc.COUNT_DISTINCT:
                sql = "SELECT COUNT(DISTINCT v) FROM t"
            elif aggregate_arity(agg):
                # 1 is valid for both parameterized forms: a PERCENTILE
                # fraction in [0, 1] and a TOPK k >= 1.
                sql = f"SELECT {agg.value}(v, 1) FROM t"
            else:
                sql = f"SELECT {agg.value}(v) FROM t"
            parsed = parse_sql(sql)
            assert parsed.agg is agg

    def test_multiple_conjuncts(self):
        parsed = parse_sql("SELECT MIN(v) FROM t WHERE a BETWEEN 0 AND 1 "
                           "AND b BETWEEN -2 AND 3.5")
        assert parsed.conditions == (("a", 0.0, 1.0), ("b", -2.0, 3.5))

    def test_comparison_operators(self):
        parsed = parse_sql("SELECT SUM(v) FROM t WHERE a >= 3 AND b <= 7")
        assert parsed.conditions == (("a", 3.0, math.inf),
                                     ("b", -math.inf, 7.0))

    def test_strict_comparisons_tighten_to_adjacent_float(self):
        parsed = parse_sql("SELECT SUM(v) FROM t WHERE a > 3 AND b < 7")
        (_, lo_a, _), (_, _, hi_b) = parsed.conditions
        assert lo_a == math.nextafter(3.0, math.inf)
        assert hi_b == math.nextafter(7.0, -math.inf)

    def test_equality_is_degenerate_interval(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE a = 5")
        assert parsed.conditions == (("a", 5.0, 5.0),)

    def test_repeats_on_same_column_intersect(self):
        parsed = parse_sql("SELECT SUM(v) FROM t WHERE "
                           "a BETWEEN 0 AND 10 AND a >= 4 AND a <= 8")
        assert parsed.conditions == (("a", 4.0, 8.0),)

    def test_scientific_and_inf_literals(self):
        parsed = parse_sql("SELECT SUM(v) FROM t WHERE "
                           "a BETWEEN 1e3 AND inf")
        assert parsed.conditions == (("a", 1000.0, math.inf),)

    def test_identifier_starting_with_inf_is_not_a_number(self):
        parsed = parse_sql("SELECT SUM(inflow) FROM t "
                           "WHERE inflow BETWEEN 0 AND 1")
        assert parsed.attr == "inflow"

    @pytest.mark.parametrize("literal,value", [
        ("Infinity", math.inf), ("-Infinity", -math.inf),
        ("-INF", -math.inf), ("+Inf", math.inf), ("INFINITY", math.inf),
    ])
    def test_infinity_literals_in_any_case(self, literal, value):
        # -Infinity is how JSON-minded clients spell an open bound.
        parsed = parse_sql(f"SELECT SUM(v) FROM t WHERE a >= {literal}")
        assert parsed.conditions == (("a", value, math.inf),)

    def test_column_named_info_is_still_an_identifier(self):
        parsed = parse_sql("SELECT SUM(info) FROM t "
                           "WHERE info BETWEEN -INF AND Inf")
        assert parsed.attr == "info"
        assert parsed.conditions == (("info", -math.inf, math.inf),)


class TestParseErrors:
    @pytest.mark.parametrize("sql,fragment", [
        ("", "expected SELECT"),
        ("SELECT", "expected an aggregate"),
        ("SELECT FOO(x) FROM t", "unknown aggregate"),
        ("SELECT SUM(*) FROM t", "is not defined"),
        ("SELECT SUM(x) FROM", "expected a table name"),
        ("SELECT SUM(x) FROM t WHERE", "expected a predicate column"),
        ("SELECT SUM(x) FROM t WHERE a", "expected BETWEEN"),
        ("SELECT SUM(x) FROM t WHERE a BETWEEN 1", "expected AND"),
        ("SELECT SUM(x) FROM t WHERE a BETWEEN 1 AND", "number"),
        ("SELECT SUM(x) FROM t extra", "expected WHERE"),
        ("SELECT SUM(x) FROM t WHERE a = 1 extra", "trailing input"),
        ("SELECT SUM(x) FROM t WHERE a ; 3", "unexpected character"),
        ("SELECT SUM(x FROM t", "expected ')'"),
    ])
    def test_syntax_errors_point_at_problem(self, sql, fragment):
        with pytest.raises(SQLError) as err:
            parse_sql(sql)
        assert fragment.lower() in str(err.value).lower()

    def test_error_carries_position(self):
        with pytest.raises(SQLError) as err:
            parse_sql("SELECT BAD(x) FROM t")
        assert err.value.pos == 7

    def test_sqlerror_is_a_valueerror(self):
        with pytest.raises(ValueError):
            parse_sql("nope")


class TestCompile:
    def test_binds_template_dimension_order(self):
        query = compile_sql("SELECT SUM(trip_distance) FROM t WHERE "
                            "fare BETWEEN 1 AND 2 AND "
                            "pickup_time BETWEEN 3 AND 4", AGG, PREDS)
        assert query.predicate_attrs == PREDS
        assert query.rect.lo == (3.0, 1.0)
        assert query.rect.hi == (4.0, 2.0)

    def test_unconstrained_dimensions_are_unbounded(self):
        query = compile_sql("SELECT SUM(trip_distance) FROM t WHERE "
                            "fare BETWEEN 1 AND 2", AGG, PREDS)
        assert query.rect.lo == (-math.inf, 1.0)
        assert query.rect.hi == (math.inf, 2.0)

    def test_no_where_clause_is_the_full_space(self):
        query = compile_sql("SELECT AVG(trip_distance) FROM t", AGG, PREDS)
        assert query.rect.lo == (-math.inf, -math.inf)
        assert query.rect.hi == (math.inf, math.inf)

    def test_count_star_uses_template_agg_attr(self):
        query = compile_sql("SELECT COUNT(*) FROM t", AGG, PREDS)
        assert query.agg is AggFunc.COUNT
        assert query.attr == AGG

    def test_off_template_predicate_rejected(self):
        with pytest.raises(SQLError, match="not a predicate attribute"):
            compile_sql("SELECT SUM(trip_distance) FROM t WHERE "
                        "tip BETWEEN 0 AND 1", AGG, PREDS)

    def test_empty_interval_rejected(self):
        with pytest.raises(SQLError, match="empty interval"):
            compile_sql("SELECT SUM(x) FROM t WHERE "
                        "fare >= 5 AND fare <= 4", AGG, PREDS)

    def test_untracked_aggregation_column_rejected(self):
        with pytest.raises(SQLError, match="not tracked"):
            compile_sql("SELECT SUM(nope) FROM t", AGG, PREDS,
                        stat_attrs=("trip_distance", "fare"))

    def test_count_ignores_stat_attrs(self):
        query = compile_sql("SELECT COUNT(*) FROM t", AGG, PREDS,
                            stat_attrs=("trip_distance",))
        assert query.attr == AGG

    def test_no_stat_attrs_skips_the_check(self):
        query = compile_sql("SELECT SUM(nope) FROM t", AGG, PREDS)
        assert query.attr == "nope"

    def test_binding_errors_carry_the_offending_position(self):
        sql = "SELECT SUM(trip_distance) FROM t WHERE zzz > 5"
        with pytest.raises(SQLError) as err:
            compile_sql(sql, AGG, PREDS)
        assert err.value.pos == sql.index("zzz")
        sql = "SELECT SUM(nope) FROM t"
        with pytest.raises(SQLError) as err:
            compile_sql(sql, AGG, PREDS, stat_attrs=("fare",))
        assert err.value.pos == sql.index("nope")


class TestSketchGrammar:
    """The PR 9 sketch-aggregate surface of the grammar."""

    def test_percentile_with_fraction(self):
        sql = "SELECT PERCENTILE(fare, 0.5) FROM trips"
        parsed = parse_sql(sql)
        assert parsed.agg is AggFunc.PERCENTILE
        assert parsed.attr == "fare"
        assert parsed.param == 0.5

    def test_count_distinct(self):
        parsed = parse_sql("SELECT COUNT(DISTINCT fare) FROM trips")
        assert parsed.agg is AggFunc.COUNT_DISTINCT
        assert parsed.attr == "fare"
        assert parsed.param is None

    def test_distinct_keyword_is_case_insensitive(self):
        parsed = parse_sql("select count(distinct fare) from trips")
        assert parsed.agg is AggFunc.COUNT_DISTINCT

    def test_topk_with_k(self):
        parsed = parse_sql("SELECT TOPK(fare, 10) FROM trips")
        assert parsed.agg is AggFunc.TOPK
        assert parsed.param == 10.0

    def test_compiles_to_parameterized_query(self):
        query = compile_sql("SELECT PERCENTILE(trip_distance, 0.9) "
                            "FROM t", AGG, PREDS)
        assert query.agg is AggFunc.PERCENTILE
        assert query.param == 0.9
        assert query.rect.lo == (-math.inf, -math.inf)
        query = compile_sql("SELECT TOPK(trip_distance, 10) FROM t",
                            AGG, PREDS)
        assert query.param == 10.0

    def test_sketch_aggregates_skip_stat_attrs_check(self):
        # Sketch coverage is validated by the serving tier against the
        # engine's sketch_attrs, not the stat_attrs template.
        query = compile_sql("SELECT COUNT(DISTINCT zone) FROM t", AGG,
                            PREDS, stat_attrs=("trip_distance",))
        assert query.attr == "zone"

    def test_arity_table_is_total(self):
        for agg in AggFunc:
            assert aggregate_arity(agg) in (0, 1)
        assert aggregate_arity(AggFunc.PERCENTILE) == 1
        assert aggregate_arity(AggFunc.TOPK) == 1
        assert aggregate_arity(AggFunc.COUNT_DISTINCT) == 0

    @pytest.mark.parametrize("sql,fragment,anchor", [
        ("SELECT PERCENTILE(fare, 1.5) FROM t",
         "fraction must be in [0, 1]", "1.5"),
        ("SELECT PERCENTILE(fare, -0.1) FROM t",
         "fraction must be in [0, 1]", "-0.1"),
        ("SELECT TOPK(fare, 0) FROM t",
         "k must be an integer >= 1", "0)"),
        ("SELECT TOPK(fare, 2.5) FROM t",
         "k must be an integer >= 1", "2.5"),
        ("SELECT COUNT(DISTINCT *) FROM t",
         "COUNT(DISTINCT *) is not defined", "*"),
        ("SELECT AVG(DISTINCT fare) FROM t",
         "DISTINCT is only supported inside COUNT", "DISTINCT"),
        ("SELECT SUM(fare, 3) FROM t",
         "does not take a parameter", ", 3"),
        ("SELECT PERCENTILE(fare) FROM t",
         "needs a parameter", None),
        ("SELECT TOPK(fare) FROM t",
         "needs a parameter", None),
    ])
    def test_errors_are_positioned_at_the_problem(self, sql, fragment,
                                                  anchor):
        with pytest.raises(SQLError) as err:
            parse_sql(sql)
        assert fragment.lower() in str(err.value).lower()
        if anchor is not None:
            assert err.value.pos == sql.index(anchor)
