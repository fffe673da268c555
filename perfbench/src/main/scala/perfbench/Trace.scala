package perfbench

import scala.collection.mutable
import repro.core.{DroppedVT, IFESpec}
import repro.graph.{DynamicGraph, GraphView}

/** Spans of a traced run, kept in memory and written as JSON when the run
  * ends. A span has a name, a start, an end and a parent (-1 at the root);
  * the parent is the span open when it began.
  */
final class Tracer {
  private final class Span(val name: Int, val start: Long, var end: Long, val parent: Int)

  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def begin(name: String): Int = {
    val n = nameIds.getOrElseUpdate(name, { names += name; names.size - 1 })
    spans += new Span(n, System.nanoTime(), -1L, open.headOption.getOrElse(-1))
    open = (spans.size - 1) :: open
    spans.size - 1
  }

  def end(id: Int): Unit = {
    require(open.headOption.contains(id), s"span $id closed out of order")
    spans(id).end = System.nanoTime()
    open = open.tail
  }

  def span[A](name: String)(f: => A): A = {
    val id = begin(name)
    try f finally end(id)
  }

  def durationNs(id: Int): Long = spans(id).end - spans(id).start

  /** Per span name: (count, total ns, self ns). Self time is a span's
    * duration minus the durations of its children.
    */
  def summary: Map[String, (Int, Long, Long)] = {
    val count = new Array[Int](names.size)
    val total = new Array[Long](names.size)
    val self = new Array[Long](names.size)
    spans.foreach { s =>
      val d = s.end - s.start
      count(s.name) += 1; total(s.name) += d; self(s.name) += d
      if (s.parent >= 0) self(spans(s.parent).name) -= d
    }
    names.indices.map(i => names(i) -> ((count(i), total(i), self(i)))).toMap
  }

  /** Writes the spans, their per-name summary and the run's counters. */
  def write(path: java.nio.file.Path, header: Map[String, String], counters: Map[String, Double]): Unit = {
    val sb = new StringBuilder("{")
    header.foreach { case (k, v) => sb ++= Json.str(k) ++= ": " ++= Json.str(v) ++= ", " }
    sb ++= "\"counters\": " ++= Json.obj(counters.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) })
    sb ++= ",\n\"summary\": " ++= Json.obj(summary.toSeq.sortBy(_._1).map { case (k, (c, t, s)) =>
      k -> Json.obj(Seq("count" -> c.toString, "total_ms" -> Json.num(t / 1e6), "self_ms" -> Json.num(s / 1e6)))
    })
    sb ++= ",\n\"span_columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\"],\n\"spans\": ["
    spans.iterator.zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb ++= ",\n"
      sb ++= s"[${Json.str(names(s.name))}, ${s.start}, ${s.end}, ${s.parent}]"
    }
    sb ++= "]}\n"
    java.nio.file.Files.createDirectories(path.toAbsolutePath.getParent)
    java.nio.file.Files.write(path, sb.toString.getBytes("UTF-8"))
  }
}

/** Aggregated counters for the hot inner calls of one traced pass: view
  * scans and DroppedVT probes run millions of times, so they are counted
  * and their nanoseconds summed rather than given spans. While `paused`
  * (the oracle checks read the engines) nothing is counted.
  */
final class LayerCounters {
  var paused: Boolean = false
  var inEdgesScanned: Long = 0L
  var outNodesScanned: Long = 0L
  var outEdgesScanned: Long = 0L
  var vtProbes: Long = 0L
  var vtHits: Long = 0L
  var vtFalseHits: Long = 0L
  var vtFalseNegatives: Long = 0L
  var vtNs: Long = 0L

  /** Zeroes the counts, so that they cover maintenance only. */
  def reset(): Unit = {
    inEdgesScanned = 0L; outNodesScanned = 0L; outEdgesScanned = 0L
    vtProbes = 0L; vtHits = 0L; vtFalseHits = 0L; vtFalseNegatives = 0L; vtNs = 0L
  }
}

/** A [[GraphView]] that counts the edges and nodes each scan yields. */
final class CountingView(inner: GraphView, c: LayerCounters) extends GraphView {
  private def counted[A](it: Iterator[A], bump: () => Unit): Iterator[A] =
    if (c.paused) it
    else new Iterator[A] {
      def hasNext: Boolean = it.hasNext
      def next(): A = { bump(); it.next() }
    }

  def graph: DynamicGraph = inner.graph
  def numNodes: Int = inner.numNodes
  def inEdges(node: Int): Iterator[(Int, Int, Byte)] =
    counted(inner.inEdges(node), () => c.inEdgesScanned += 1)
  def outNodes(node: Int): Iterator[Int] =
    counted(inner.outNodes(node), () => c.outNodesScanned += 1)
  def outEdges(node: Int): Iterator[(Int, Int, Byte)] =
    counted(inner.outEdges(node), () => c.outEdgesScanned += 1)
  def policyDegree(node: Int): Int = inner.policyDegree(node)
  def touchedDsts(u: Int, v: Int, label: Byte): Iterator[Int] = inner.touchedDsts(u, v, label)
  def touchedSrcs(u: Int, v: Int, label: Byte): Iterator[Int] = inner.touchedSrcs(u, v, label)
  def baseVertex(node: Int): Int = inner.baseVertex(node)
}

/** An [[IFESpec]] that delegates to `inner` but reads the graph through a
  * [[CountingView]], so the engines' scans are counted.
  */
final class CountingSpec(inner: IFESpec, c: LayerCounters) extends IFESpec {
  val view: GraphView = new CountingView(inner.view, c)
  def init(node: Int): Double = inner.init(node)
  def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double =
    inner.contrib(srcNode, srcVal, weight, label)
  def aggZero: Double = inner.aggZero
  def agg(a: Double, b: Double): Double = inner.agg(a, b)
  def finish(aggVal: Double, initVal: Double): Double = inner.finish(aggVal, initVal)
  def maxIters: Int = inner.maxIters
  override def fixedIters: Boolean = inner.fixedIters
  override def same(a: Double, b: Double): Boolean = inner.same(a, b)
  override def edgeTouchesAllOutNeighbours: Boolean = inner.edgeTouchesAllOutNeighbours
}

/** A [[DroppedVT]] decorator that keeps an exact shadow set of the dropped
  * (vertex, iteration) pairs. Each probe of `inner` is timed and compared
  * with the shadow set: a reported pair that was never dropped is a false
  * hit; a dropped pair that is not reported is a false negative, which the
  * DroppedVT contract forbids.
  */
final class ShadowDroppedVT(val inner: DroppedVT, c: LayerCounters) extends DroppedVT {
  /** Per vertex, its dropped iterations in ascending order. */
  private val exact = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]

  /** Index of the first element of `xs` that is > `x`. */
  private def upper(xs: mutable.ArrayBuffer[Int], x: Int): Int = {
    var lo = 0; var hi = xs.size
    while (lo < hi) { val m = (lo + hi) >>> 1; if (xs(m) <= x) lo = m + 1 else hi = m }
    lo
  }

  private def exactIn(node: Int, loExclusive: Int, hiInclusive: Int): Seq[Int] =
    exact.get(node.toLong) match {
      case None => Nil
      case Some(xs) => xs.slice(upper(xs, loExclusive), upper(xs, hiInclusive)).toSeq
    }

  def add(node: Int, iter: Int): Unit = {
    val t0 = System.nanoTime()
    inner.add(node, iter)
    c.vtNs += System.nanoTime() - t0
    val xs = exact.getOrElseUpdate(node.toLong, mutable.ArrayBuffer.empty[Int])
    val at = upper(xs, iter)
    if (at == 0 || xs(at - 1) != iter) xs.insert(at, iter)
  }

  def latestIn(node: Int, loExclusive: Int, hiInclusive: Int): Int = {
    val t0 = System.nanoTime()
    val got = inner.latestIn(node, loExclusive, hiInclusive)
    if (!c.paused) {
      c.vtNs += System.nanoTime() - t0
      c.vtProbes += 1
      val xs = exact.getOrElse(node.toLong, null)
      val last = if (xs == null) -1 else upper(xs, hiInclusive) - 1
      val want = if (last >= 0 && xs(last) > loExclusive) xs(last) else -1
      if (got < want) c.vtFalseNegatives += 1
      if (got >= 0) {
        c.vtHits += 1
        val at = if (xs == null) -1 else upper(xs, got) - 1
        if (at < 0 || xs(at) != got) c.vtFalseHits += 1
      }
    }
    got
  }

  def itersIn(node: Int, loExclusive: Int, hiInclusive: Int): Iterator[Int] = {
    val t0 = System.nanoTime()
    val got = inner.itersIn(node, loExclusive, hiInclusive).toArray
    if (!c.paused) {
      c.vtNs += System.nanoTime() - t0
      c.vtProbes += 1
      c.vtHits += got.length
      val want = exactIn(node, loExclusive, hiInclusive)
      val found = want.count(got.contains)
      c.vtFalseNegatives += want.size - found
      c.vtFalseHits += got.length - found
    }
    got.iterator
  }

  def logicalCount: Long = inner.logicalCount
  def sizeBytes: Long = inner.sizeBytes
}

/** Just enough JSON for the benchmark's output. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case ch if ch < ' ' => f"\\u${ch.toInt}%04x"
      case ch => ch.toString
    } + "\""

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not a JSON number")
    x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
