package perfbench

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DetDroppedVT, DroppedVT, ProbDroppedVT}

class TraceSpec extends AnyFunSuite {

  /** Forgets one dropped pair: the fault the shadow set must catch. */
  private final class Forgetful(forget: (Int, Int)) extends DroppedVT {
    private val inner = new DetDroppedVT
    def add(node: Int, iter: Int): Unit = if ((node, iter) != forget) inner.add(node, iter)
    def latestIn(node: Int, lo: Int, hi: Int): Int = inner.latestIn(node, lo, hi)
    def itersIn(node: Int, lo: Int, hi: Int): Iterator[Int] = inner.itersIn(node, lo, hi)
    def logicalCount: Long = inner.logicalCount
    def sizeBytes: Long = inner.sizeBytes
  }

  private def dropAll(vt: DroppedVT): Unit =
    Seq((3, 1), (3, 2), (3, 5), (4, 2)).foreach { case (n, i) => vt.add(n, i) }

  test("the shadow set flags an injected false negative") {
    val c = new LayerCounters
    val vt = new ShadowDroppedVT(new Forgetful(forget = (3, 2)), c)
    dropAll(vt)
    assert(vt.latestIn(3, 0, 4) == 1) // (3, 2) was dropped but is reported absent
    assert(c.vtFalseNegatives == 1)
    assert(vt.itersIn(3, 0, 9).toSeq == Seq(1, 5))
    assert(c.vtFalseNegatives == 2)
    assert(c.vtProbes == 2 && c.vtFalseHits == 0)
  }

  test("an exact DroppedVT has neither false hits nor false negatives") {
    val c = new LayerCounters
    val vt = new ShadowDroppedVT(new DetDroppedVT, c)
    dropAll(vt)
    assert(vt.latestIn(3, 0, 4) == 2)
    assert(vt.latestIn(4, 2, 9) == -1)
    assert(vt.itersIn(3, 1, 5).toSeq == Seq(2, 5))
    assert(c.vtProbes == 3 && c.vtHits == 3)
    assert(c.vtFalseHits == 0 && c.vtFalseNegatives == 0)
  }

  test("an overfull Bloom filter gives false hits, never false negatives") {
    val c = new LayerCounters
    val vt = new ShadowDroppedVT(new ProbDroppedVT(1, bitsPerElement = 1), c)
    (0 until 200).foreach(n => vt.add(n, 1))
    (0 until 200).foreach(n => vt.latestIn(n, 0, 6))
    assert(c.vtFalseNegatives == 0)
    assert(c.vtFalseHits > 0)
  }

  test("nothing is counted while paused") {
    val c = new LayerCounters
    val vt = new ShadowDroppedVT(new Forgetful(forget = (3, 2)), c)
    dropAll(vt)
    c.paused = true
    vt.latestIn(3, 0, 4)
    assert(c.vtProbes == 0 && c.vtFalseNegatives == 0)
  }

  test("self time is a span minus its children") {
    val t = new Tracer
    t.span("batch") {
      t.span("jod.applyBatch")(Thread.sleep(2))
      t.span("jod.applyBatch")(Thread.sleep(1))
    }
    val s = t.summary
    val (n, batchTotal, batchSelf) = s("batch")
    val (m, childTotal, childSelf) = s("jod.applyBatch")
    assert(n == 1 && m == 2)
    assert(batchSelf == batchTotal - childTotal)
    assert(childSelf == childTotal)
  }

  test("the trace is written as JSON with every span") {
    val t = new Tracer
    t.span("pass")(t.span("batch")(()))
    val dir = java.nio.file.Files.createTempDirectory("perfbench-trace")
    val file = dir.resolve("t.json")
    t.write(file, Map("workload" -> "w"), Map("jod.drops" -> 1.5))
    val text = new String(java.nio.file.Files.readAllBytes(file), "UTF-8")
    assert(text.contains("\"workload\": \"w\"") && text.contains("\"jod.drops\": 1.5"))
    assert("\\[\"batch\", \\d+, \\d+, 0\\]".r.findFirstIn(text).nonEmpty)
    java.nio.file.Files.delete(file)
    java.nio.file.Files.delete(dir)
  }
}
