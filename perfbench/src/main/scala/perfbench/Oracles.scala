package perfbench

import scala.collection.mutable
import repro.graph.EdgeUpdate

/** The benchmark's own copy of the edge multiset, updated from the same
  * stream the engines see. It shares no code with `DynamicGraph`, so a fault
  * in the program's graph store cannot hide in the oracle.
  */
final class EdgeMultiset(val numVertices: Int) {
  require(numVertices > 0 && numVertices < (1 << 24), s"vertex count $numVertices does not pack")

  /** Multiplicity of each present (src, dst, weight, label). */
  private val count = mutable.LongMap.empty[Int]
  /** Per source, the distinct present edges as packed (dst, weight, label). */
  private val out = Array.fill(numVertices)(new EdgeMultiset.LongList)

  private def key(src: Int, dst: Int, weight: Int, label: Byte): Long = {
    require(src >= 0 && src < numVertices && dst >= 0 && dst < numVertices,
      s"edge ($src, $dst) outside [0, $numVertices)")
    require(weight >= 0 && weight < 256, s"weight $weight does not pack")
    (src.toLong << 40) | (dst.toLong << 16) | (weight.toLong << 8) | (label & 0xffL)
  }

  def add(src: Int, dst: Int, weight: Int, label: Byte): Unit = {
    val k = key(src, dst, weight, label)
    val c = count.getOrElse(k, 0)
    if (c == 0) out(src).add(k & 0xffffffffffL)
    count(k) = c + 1
  }

  /** Removes one copy; a stream that deletes an absent edge is malformed. */
  def remove(src: Int, dst: Int, weight: Int, label: Byte): Unit = {
    val k = key(src, dst, weight, label)
    val c = count.getOrElse(k, 0)
    if (c == 0) throw new IllegalStateException(s"stream deletes absent edge ($src, $dst, $weight)")
    if (c > 1) count(k) = c - 1
    else { count.remove(k); out(src).remove(k & 0xffffffffffL) }
  }

  def apply(u: EdgeUpdate): Unit =
    if (u.add) add(u.src, u.dst, u.weight, u.label) else remove(u.src, u.dst, u.weight, u.label)

  /** Calls `f(dst, weight)` for each distinct present out-edge of `v`. */
  @inline def foreachOut(v: Int)(f: (Int, Int) => Unit): Unit = {
    val l = out(v)
    var j = 0
    while (j < l.size) { f((l.items(j) >>> 16).toInt, ((l.items(j) >>> 8) & 0xffL).toInt); j += 1 }
  }
}

object EdgeMultiset {
  /** A growable list of longs; removal swaps in the last element. */
  private final class LongList {
    var items = new Array[Long](2)
    var size = 0
    def add(x: Long): Unit = {
      if (size == items.length) items = java.util.Arrays.copyOf(items, size * 2)
      items(size) = x; size += 1
    }
    def remove(x: Long): Unit = {
      val at = items.indexOf(x)
      if (at >= 0 && at < size) { size -= 1; items(at) = items(size) }
    }
  }

  def apply(numVertices: Int, edges: Seq[(Int, Int, Int, Byte)]): EdgeMultiset = {
    val m = new EdgeMultiset(numVertices)
    edges.foreach { case (s, d, w, l) => m.add(s, d, w, l) }
    m
  }
}

/** Textbook algorithms for the states the engines maintain, written against
  * [[EdgeMultiset]] only (no `ScratchEngine`, `GraphView` or `DynamicGraph`).
  * Unreached vertices read `+∞`, as in the engines.
  */
object Oracles {
  val Inf: Double = Double.PositiveInfinity

  /** Dijkstra from `source`; distances of every vertex, or, given a
    * `target`, exact for the target and every vertex settled before it.
    */
  def dijkstra(g: EdgeMultiset, source: Int, target: Int = -1): Array[Double] = {
    val dist = Array.fill(g.numVertices)(Long.MaxValue)
    val done = new Array[Boolean](g.numVertices)
    // Entries pack (distance, vertex); vertices fit in 24 bits.
    val heap = new java.util.PriorityQueue[java.lang.Long]()
    dist(source) = 0L
    heap.add(source.toLong)
    while (!heap.isEmpty) {
      val e: Long = heap.poll()
      val v = (e & 0xffffffL).toInt
      if (v == target) heap.clear()
      else if (!done(v)) {
        done(v) = true
        g.foreachOut(v) { (u, w) =>
          val nd = dist(v) + w
          if (nd < dist(u)) { dist(u) = nd; heap.add((nd << 24) | u) }
        }
      }
    }
    dist.map(d => if (d == Long.MaxValue) Inf else d.toDouble)
  }

  /** Hop distance from `source` by breadth-first search, cut off at `k`. */
  def khop(g: EdgeMultiset, source: Int, k: Int): Array[Double] = {
    val dist = Array.fill(g.numVertices)(Inf)
    dist(source) = 0.0
    var level = Array(source)
    var depth = 0
    while (level.nonEmpty && depth < k) {
      depth += 1
      val next = mutable.ArrayBuffer.empty[Int]
      level.foreach { v =>
        g.foreachOut(v) { (u, _) =>
          if (dist(u) == Inf) { dist(u) = depth; next += u }
        }
      }
      level = next.toArray
    }
    dist
  }

  /** Weakly connected components by union-find; each vertex reads the
    * smallest vertex id of its component.
    */
  def wcc(g: EdgeMultiset): Array[Double] = {
    val parent = Array.tabulate(g.numVertices)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    var v = 0
    while (v < g.numVertices) {
      g.foreachOut(v) { (u, _) =>
        val a = find(v); val b = find(u)
        // The smaller id becomes the root, so a root is its component's minimum.
        if (a < b) parent(b) = a else if (b < a) parent(a) = b
      }
      v += 1
    }
    Array.tabulate(g.numVertices)(x => find(x).toDouble)
  }
}
