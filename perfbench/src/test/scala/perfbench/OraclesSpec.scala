package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.RunningExample
import RunningExample.{A, B, C, D, E}

/** The oracles on the paper's running example (Fig 2), against distances
  * worked by hand.
  */
class OraclesSpec extends AnyFunSuite {
  private val Inf = Double.PositiveInfinity

  private def example(): EdgeMultiset = EdgeMultiset(5, RunningExample.initialEdges)

  test("Dijkstra on G0, G1 and G2 of Fig 2") {
    val g = example()
    // a→e 10, a→d 20, a→b 30, c via b (30+10) or d (20+20)
    assert(Oracles.dijkstra(g, A).toSeq == Seq(0.0, 30.0, 40.0, 20.0, 10.0))
    RunningExample.update1.foreach(g.apply)
    // (a, d) weighs 100: d is reached through c at 40 + 10
    assert(Oracles.dijkstra(g, A).toSeq == Seq(0.0, 30.0, 40.0, 50.0, 10.0))
    RunningExample.update2.foreach(g.apply)
    // (b, c) weighs 100 too: d by its direct edge, c through d at 100 + 20
    assert(Oracles.dijkstra(g, A).toSeq == Seq(0.0, 30.0, 120.0, 100.0, 10.0))
  }

  test("Dijkstra with a target stops early but is exact for the target") {
    val g = example()
    assert(Oracles.dijkstra(g, A, target = C)(C) == 40.0)
    assert(Oracles.dijkstra(g, D, target = B)(B) == Inf)
  }

  test("K-hop BFS is cut off at k") {
    val g = example()
    assert(Oracles.khop(g, A, 2).toSeq == Seq(0.0, 1.0, 2.0, 1.0, 1.0))
    assert(Oracles.khop(g, A, 1).toSeq == Seq(0.0, 1.0, Inf, 1.0, 1.0))
    // from c: c→d→e, and d→c leads back
    assert(Oracles.khop(g, C, 5).toSeq == Seq(Inf, Inf, 0.0, 1.0, 2.0))
  }

  test("WCC labels each vertex with its component's smallest id") {
    val g = EdgeMultiset(8, RunningExample.initialEdges :+ ((7, 6, 1, 0.toByte)))
    assert(Oracles.wcc(g).toSeq == Seq(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 6.0, 6.0))
    g.remove(7, 6, 1, 0)
    assert(Oracles.wcc(g).toSeq == Seq(0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 6.0, 7.0))
  }

  test("the multiset keeps parallel edges until the last copy goes") {
    val g = example()
    g.add(A, B, 1, 0)
    g.add(A, B, 1, 0)
    g.remove(A, B, 1, 0)
    assert(Oracles.dijkstra(g, A)(B) == 1.0)
    g.remove(A, B, 1, 0)
    assert(Oracles.dijkstra(g, A)(B) == 30.0)
    assertThrows[IllegalStateException](g.remove(A, B, 1, 0))
  }
}
