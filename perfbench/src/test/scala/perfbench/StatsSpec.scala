package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {
  test("nearest-rank percentiles of known arrays") {
    val hundred = (1L to 100L).reverse.toArray
    assert(Stats.percentile(hundred, 50) == 50L)
    assert(Stats.percentile(hundred, 95) == 95L)
    assert(Stats.percentile(hundred, 100) == 100L)
    assert(Stats.percentile(Array(5L, 1L, 3L), 50) == 3L)
    assert(Stats.percentile(Array(7L), 95) == 7L)
    assertThrows[IllegalArgumentException](Stats.percentile(Array.empty[Long], 50))
  }

  test("pooling takes percentiles over every pass, not per pass") {
    val fast = Array.fill(90)(10L)
    val slow = Array.fill(10)(1000L)
    val pooled = Stats.pool(Seq(fast, slow))
    assert(pooled.length == 100)
    assert(Stats.percentile(pooled, 50) == 10L)
    assert(Stats.percentile(pooled, 95) == 1000L)
    // the median of per-pass p95s would read (10 + 1000) / 2 instead
    assert(Stats.median(Seq(fast, slow).map(p => Stats.percentile(p, 95).toDouble)) == 505.0)
  }

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }
}
