package parmd

import (
	"sctuple/internal/comm"
	"sctuple/internal/geom"
)

// Shared wire codec for every parallel exchange. The four record
// types below are the only payloads the simulation moves — halo
// import (whole records on list rebuilds, positions between them),
// atom migration, and force write-back all encode through the same
// put/get pairs, so there is exactly one wire format to keep in sync
// (and one set of record sizes, exported for the performance model's
// Eq. 31 byte accounting).

// Wire sizes in bytes of the four record types.
const (
	// HaloAtomWireBytes is one imported halo atom:
	// id + species + extended cell + local position.
	HaloAtomWireBytes = 8 + 4 + 3*4 + 3*8 // 48
	// MigrantWireBytes is one migrating atom:
	// id + species + global position + velocity.
	MigrantWireBytes = 8 + 4 + 3*8 + 3*8 // 60
	// ForceWireBytes is one written-back force vector.
	ForceWireBytes = 3 * 8 // 24
	// HaloPositionWireBytes is one halo atom's local position, resent
	// between list rebuilds for the import set of the last rebuild.
	HaloPositionWireBytes = 3 * 8 // 24
)

// putHaloAtom appends one halo atom, already shifted into the
// receiver's frame.
func putHaloAtom(b *comm.Buffer, id int64, sp int32, ec geom.IVec3, lp geom.Vec3) {
	b.Int64(id)
	b.Int32(sp)
	b.Int32(int32(ec.X))
	b.Int32(int32(ec.Y))
	b.Int32(int32(ec.Z))
	b.Vec3(lp)
}

// getHaloAtom decodes one halo atom.
func getHaloAtom(rd *comm.Reader) (id int64, sp int32, ec geom.IVec3, lp geom.Vec3) {
	id = rd.Int64()
	sp = rd.Int32()
	ec = geom.IV(int(rd.Int32()), int(rd.Int32()), int(rd.Int32()))
	lp = rd.Vec3()
	return id, sp, ec, lp
}

// putHaloPosition appends one halo atom's position, already shifted
// into the receiver's frame.
func putHaloPosition(b *comm.Buffer, lp geom.Vec3) { b.Vec3(lp) }

// getHaloPosition decodes one halo atom's position.
func getHaloPosition(rd *comm.Reader) geom.Vec3 { return rd.Vec3() }

// putMigrant appends one migrating atom in wrapped global coordinates.
func putMigrant(b *comm.Buffer, id int64, sp int32, gpos, vel geom.Vec3) {
	b.Int64(id)
	b.Int32(sp)
	b.Vec3(gpos)
	b.Vec3(vel)
}

// getMigrant decodes one migrating atom.
func getMigrant(rd *comm.Reader) (id int64, sp int32, gpos, vel geom.Vec3) {
	id = rd.Int64()
	sp = rd.Int32()
	gpos = rd.Vec3()
	vel = rd.Vec3()
	return id, sp, gpos, vel
}

// putForce appends one written-back force vector.
func putForce(b *comm.Buffer, f geom.Vec3) { b.Vec3(f) }

// getForce decodes one written-back force vector.
func getForce(rd *comm.Reader) geom.Vec3 { return rd.Vec3() }
